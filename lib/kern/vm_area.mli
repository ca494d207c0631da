(** Virtual memory areas (vm_area_struct equivalents) with a page
    privilege level per area. *)

type perms = { pr : bool; pw : bool; px : bool }

val rw : perms

val ro : perms

val rx : perms

type kind =
  | Text
  | Data
  | Bss
  | Heap
  | Stack
  | Mmap_anon
  | Shared_lib
  | Got
  | Plt
  | Ext_code
  | Ext_data
  | Ext_stack
  | Shared_area
  | Gate_stack

type t = {
  mutable va_start : int;  (** page aligned *)
  mutable va_end : int;  (** exclusive, page aligned *)
  mutable perms : perms;
  mutable ppl : X86.Privilege.page_level;
  mutable key : int;
      (** protection key its pages receive when mapped (MPK backend);
          0 = no key, never checked *)
  kind : kind;
  label : string;
}

val kind_name : kind -> string

val create :
  ?label:string ->
  ?key:int ->
  va_start:int ->
  va_end:int ->
  perms:perms ->
  ppl:X86.Privilege.page_level ->
  kind ->
  t
(** Raises [Invalid_argument] on unaligned or empty ranges, or a key
    outside [0, X86.Paging.key_count). [key] defaults to 0. *)

val contains : t -> int -> bool

val overlaps : t -> va_start:int -> va_end:int -> bool

val pages : t -> int

val allows : t -> X86.Fault.access -> bool

val pp : t Fmt.t
