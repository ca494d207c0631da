(** Per-task user-mode runtime: trampoline code through which the
    OCaml-level application logic drives the simulated CPU — issuing
    int-0x80 system calls, making (protected or plain) function calls
    and exercising guard segments.  The moral equivalent of crt0 +
    libc stubs. *)

type t

val install : Kernel.t -> Task.t -> t
(** Map the trampoline page and a user stack into the task. *)

val sym : t -> string -> int
(** Address of a runtime stub (e.g. ["rt$syscall"]); raises
    [Invalid_argument] for unknown names. *)

val stack_top : t -> int

exception Syscall_failed of { name : string; errno : Errno.t }

(** Result of one entry into user mode. *)
type outcome = {
  value : int;  (** EAX on exit *)
  result : Kernel.run_result;
  cycles : int;  (** cycles consumed by this entry *)
}

val enter : t -> entry:int -> regs:(Reg.t * int) list -> outcome
(** Enter user mode at [entry] with the given register values and run
    to completion. *)

val syscall : ?a1:int -> ?a2:int -> ?a3:int -> t -> number:int -> int
(** Issue a system call through int 0x80 from user mode; returns EAX.
    Raises {!Kernel.Panic} if the call itself faults. *)

val syscall_exn :
  ?a1:int -> ?a2:int -> ?a3:int -> t -> number:int -> name:string -> int
(** Like {!syscall} but raises {!Syscall_failed} on a [-errno]
    return. *)

val invoke1 : t -> fn:int -> arg:int -> outcome
(** Call the function at [fn] with one stack argument. *)

val guard_store : t -> selector:int -> offset:int -> value:int -> outcome
(** Store through a guard segment (ES override). *)

val guard_load : t -> selector:int -> offset:int -> outcome
