(** Audit findings: one invariant violation, tied to the machine
    object that violates it. *)

type subject =
  | Gdt_slot of int
  | Ldt_slot of { pid : int; slot : int }
  | Idt_vector of int
  | Tss_ring of { pid : int; ring : int }
  | Page of { pid : int option; vpn : int }
      (** [pid = None] means the kernel boot directory. *)
  | Frame of int  (** a physical frame number *)
  | Task_state of int  (** pid *)
  | Code_addr of int  (** an instruction slot in code memory *)
  | Machine  (** global state with no narrower locus *)

type t = { f_id : string; f_subject : subject; f_msg : string }

val v : id:string -> subject -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [v ~id subject fmt ...] builds a finding with a formatted
    explanation. *)

val to_json : t -> Obs.Json.t

val pp : t Fmt.t
