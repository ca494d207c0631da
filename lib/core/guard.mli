(** Protected memory service (paper section 6, on-going work): a
    dedicated segment whose limit exactly bounds a memory region, so
    wild pointers cannot corrupt it — out-of-range accesses fail the
    hardware segment-limit check. *)

type t

type error = Out_of_bounds of X86.Fault.t

val create : User_ext.t -> size:int -> t
(** Allocate a guarded region inside the application and install its
    bounding LDT descriptor.
    @raise Invalid_argument under the keys boundary, whose ring 3
    application cannot load the DPL 2 guard segment. *)

val base : t -> int
(** Linear address of the guarded region. *)

val size : t -> int

val selector : t -> int
(** Encoded selector of the guard segment. *)

val store : t -> offset:int -> value:int -> (unit, error) result
(** Store through the guard segment (ES-override on the simulated
    CPU); offsets outside [0, size) fault in hardware. *)

val load : t -> offset:int -> (int, error) result
