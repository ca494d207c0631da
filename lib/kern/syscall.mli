(** System-call numbers and dispatch (Linux int-0x80 ABI: number in
    EAX, arguments in EBX/ECX/EDX, result or [-errno] back in EAX). *)

val sys_exit : int

val sys_fork : int

val sys_write : int

val sys_getpid : int

val sys_time : int

val sys_mmap : int

val sys_munmap : int

val sys_mprotect : int

val sys_init_pl : int

val sys_set_range : int

val sys_set_call_gate : int

val sys_init_mpk : int

val sys_set_key : int

type context = {
  task : Task.t;
  cpu : Cpu.t;
  caller_spl : X86.Privilege.ring;
      (** SPL of the code segment that issued int 0x80 *)
  arg1 : int;
  arg2 : int;
  arg3 : int;
}

type fn = context -> int

type table

val create_table : unit -> table

val register : table -> number:int -> name:string -> fn -> unit

val dispatch : table -> context -> int -> int
(** Dispatch with the paper's taskSPL check: SPL 3 callers of a
    promoted (taskSPL = 2) process get EPERM — extensions must go
    through application services. *)
