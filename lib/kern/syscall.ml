(* System call numbers and the dispatch table.  The Linux int-0x80 ABI
   is used: EAX holds the call number, EBX/ECX/EDX the first three
   arguments, and the result (or -errno) comes back in EAX. *)

module P = X86.Privilege

(* Classic Linux numbers where one exists; Palladium's new calls get
   numbers above 200 as a new-syscall patch would. *)
let sys_exit = 1

let sys_fork = 2

let sys_write = 4

let sys_getpid = 20

let sys_time = 13

let sys_mmap = 90

let sys_munmap = 91

let sys_mprotect = 125

let sys_init_pl = 200

let sys_set_range = 201

let sys_set_call_gate = 202

let sys_init_mpk = 203

let sys_set_key = 204

type context = {
  task : Task.t;
  cpu : Cpu.t;
  caller_spl : P.ring; (* SPL of the code segment that issued int 0x80 *)
  arg1 : int;
  arg2 : int;
  arg3 : int;
}

type fn = context -> int

type table = { entries : (int, string * fn) Hashtbl.t }

let create_table () = { entries = Hashtbl.create 32 }

let register table ~number ~name fn =
  Hashtbl.replace table.entries number (name, fn)

let name_of table number =
  match Hashtbl.find_opt table.entries number with
  | Some (name, _) -> Some name
  | None -> None

let c_syscalls = Obs.Counters.counter "kern.syscalls"

(* Dispatch with the paper's taskSPL check: a promoted process's SPL 3
   code (i.e. a user extension) may not make system calls directly;
   it must go through application services. *)
let dispatch table (ctx : context) number =
  Obs.Counters.incr c_syscalls;
  let span_on = Obs.Span.on () in
  let span_name =
    if span_on then
      "syscall." ^ Option.value (name_of table number) ~default:"unknown"
    else ""
  in
  if span_on then Obs.Span.begin_ span_name ~at:(Cpu.cycles ctx.cpu);
  let ret =
    if Task.is_promoted ctx.task && P.equal ctx.caller_spl P.R3 then
      Errno.to_ret Errno.EPERM
    else
      match Hashtbl.find_opt table.entries number with
      | None -> Errno.to_ret Errno.ENOSYS
      | Some (_, fn) -> fn ctx
  in
  if span_on then
    Obs.Span.end_ span_name ~at:(Cpu.cycles ctx.cpu)
      ~args:[ ("number", string_of_int number); ("ret", string_of_int ret) ];
  ret
