(** Task State Segment: per-ring stack pointers (rings 0-2 only), the
    task's page directory and its LDT. *)

type stack = { stack_selector : X86.Selector.t; stack_pointer : int }

type t

val create : dir:X86.Paging.dir -> ?ldt:X86.Desc_table.t -> unit -> t

val id : t -> int

val set_stack : t -> X86.Privilege.ring -> stack -> unit
(** Raises [Invalid_argument] for ring 3 (no such TSS slot). *)

val clear_stack : t -> X86.Privilege.ring -> unit
(** Empty a stack slot — a fault-injection hook for the
    protection-state auditor.  Raises [Invalid_argument] for ring 3. *)

val stack_slot : t -> X86.Privilege.ring -> stack option
(** Non-faulting read of a slot (for read-only state snapshots). *)

val stack_for : t -> X86.Privilege.ring -> stack
(** Raises {!X86.Fault.Fault} when the slot is unset or ring 3. *)

val directory : t -> X86.Paging.dir

val set_directory : t -> X86.Paging.dir -> unit

val ldt : t -> X86.Desc_table.t option
