(** Segment and gate descriptors — the 8-byte GDT/LDT entries. *)

type code_attr = { conforming : bool; readable : bool }

type data_attr = { writable : bool; expand_down : bool }

type gate = {
  gate_dpl : Privilege.ring;
  target : Selector.t;
  entry : int;
  param_count : int;
}

type kind =
  | Code of code_attr
  | Data of data_attr
  | Call_gate of gate
  | Interrupt_gate of gate
  | Trap_gate of gate
  | Tss_desc of { tss_id : int; busy : bool }

type seg = {
  base : int;
  limit : int;  (** highest valid offset, i.e. size - 1 *)
  dpl : Privilege.ring;
  present : bool;
  kind : kind;
}

type t = seg

val code :
  ?conforming:bool ->
  ?readable:bool ->
  base:int ->
  limit:int ->
  dpl:Privilege.ring ->
  unit ->
  t

val data :
  ?writable:bool ->
  ?expand_down:bool ->
  base:int ->
  limit:int ->
  dpl:Privilege.ring ->
  unit ->
  t

val call_gate :
  dpl:Privilege.ring ->
  target:Selector.t ->
  entry:int ->
  ?param_count:int ->
  unit ->
  t

val interrupt_gate :
  dpl:Privilege.ring -> target:Selector.t -> entry:int -> unit -> t

val trap_gate : dpl:Privilege.ring -> target:Selector.t -> entry:int -> unit -> t

val tss : tss_id:int -> dpl:Privilege.ring -> t

val not_present : t -> t

val is_code : t -> bool

val is_data : t -> bool

val is_gate : t -> bool

val is_writable : t -> bool

val is_readable : t -> bool

val is_conforming : t -> bool

val offset_valid : t -> offset:int -> size:int -> bool
(** Segment-limit check, honouring expand-down data segments. *)

val encode : t -> int * int
(** The two 32-bit words of the hardware descriptor layout. *)

val pp_kind : kind Fmt.t

val pp : t Fmt.t
