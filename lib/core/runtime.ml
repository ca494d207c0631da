(* Per-task user-mode runtime: a small page of trampoline code the
   OCaml-level "application logic" uses to drive the simulated CPU —
   issuing system calls through int 0x80, calling functions (protected
   or not) and exercising guarded segments.  This is the moral
   equivalent of the C runtime the paper's applications were linked
   with. *)

type t = {
  kernel : Kernel.t;
  task : Task.t;
  text_base : int;
  stack_top : int;
  syms : (string * int) list;
}

let program =
  [
    Asm.L "rt$syscall";
    Asm.I (Instr.Int_ 0x80);
    Asm.I Instr.Hlt;
    (* Call a function pointer in EAX with one argument in EBX. *)
    Asm.L "rt$invoke1";
    Asm.I (Instr.Mark "rt.start");
    Asm.I (Instr.Push (Operand.Reg Reg.EBX));
    Asm.I (Instr.Call_ind (Operand.Reg Reg.EAX));
    Asm.I (Instr.Mark "rt.done");
    Asm.I (Instr.Alu (Instr.Add, Operand.Reg Reg.ESP, Operand.Imm 4));
    Asm.I Instr.Hlt;
    (* Store EDX at ES:[EBX] after loading ES with the selector in
       ECX: the protected-memory-service accessor. *)
    Asm.L "rt$guard_store";
    Asm.I (Instr.Mov_to_sreg (Reg.ES, Operand.Reg Reg.ECX));
    Asm.I
      (Instr.Mov (Operand.mem ~base:Reg.EBX ~seg:Reg.ES (), Operand.Reg Reg.EDX));
    Asm.I Instr.Hlt;
    Asm.L "rt$guard_load";
    Asm.I (Instr.Mov_to_sreg (Reg.ES, Operand.Reg Reg.ECX));
    Asm.I
      (Instr.Mov (Operand.Reg Reg.EAX, Operand.mem ~base:Reg.EBX ~seg:Reg.ES ()));
    Asm.I Instr.Hlt;
  ]

let install kernel task =
  let asm = Asm.assemble program in
  let len = max asm.Asm.text_size X86.Phys_mem.page_size in
  let area =
    Address_space.mmap task.Task.asp ~len ~perms:Vm_area.rx ~label:"runtime"
      Vm_area.Text
  in
  Address_space.populate task.Task.asp area;
  let base = area.Vm_area.va_start in
  Code_mem.store_program (Kernel.code kernel) ~addr:base asm.Asm.instrs;
  let stack_top = Kernel.map_user_stack kernel task ~pages:X86.Layout.default_stack_pages in
  {
    kernel;
    task;
    text_base = base;
    stack_top;
    syms = List.map (fun (n, off) -> (n, base + off)) asm.Asm.symbols;
  }

let sym t name =
  match List.assoc_opt name t.syms with
  | Some a -> a
  | None -> invalid_arg ("Runtime.sym: " ^ name)

let stack_top t = t.stack_top

exception Syscall_failed of { name : string; errno : Errno.t }

(* Result of running user code to completion. *)
type outcome = {
  value : int; (* EAX at the end *)
  result : Kernel.run_result;
  cycles : int; (* cycles consumed by this entry into user mode *)
}

let enter t ~entry ~regs =
  let cpu = Kernel.cpu t.kernel in
  Kernel.enter_user t.kernel t.task ~eip:entry ~esp:t.stack_top;
  List.iter (fun (r, v) -> Cpu.set_reg cpu r v) regs;
  let before = Cpu.cycles cpu in
  let result = Kernel.run t.kernel () in
  {
    value = Cpu.get_reg cpu Reg.EAX;
    result;
    cycles = Cpu.cycles cpu - before;
  }

(* Issue a system call from user mode through int 0x80. *)
let syscall ?(a1 = 0) ?(a2 = 0) ?(a3 = 0) t ~number =
  let o =
    enter t ~entry:(sym t "rt$syscall")
      ~regs:[ (Reg.EAX, number); (Reg.EBX, a1); (Reg.ECX, a2); (Reg.EDX, a3) ]
  in
  match o.result with
  | Kernel.Completed -> o.value
  | Kernel.Faulted f ->
      raise (Kernel.Panic ("syscall faulted: " ^ X86.Fault.to_string f))
  | Kernel.Timed_out _ | Kernel.Out_of_fuel ->
      raise (Kernel.Panic "syscall did not complete")

let syscall_exn ?a1 ?a2 ?a3 t ~number ~name =
  let v = syscall ?a1 ?a2 ?a3 t ~number in
  match Errno.of_ret v with
  | Some errno -> raise (Syscall_failed { name; errno })
  | None -> v

(* Call a user function (by pointer) with one argument. *)
let invoke1 t ~fn ~arg =
  enter t ~entry:(sym t "rt$invoke1") ~regs:[ (Reg.EAX, fn); (Reg.EBX, arg) ]

let guard_store t ~selector ~offset ~value =
  enter t ~entry:(sym t "rt$guard_store")
    ~regs:[ (Reg.ECX, selector); (Reg.EBX, offset); (Reg.EDX, value) ]

let guard_load t ~selector ~offset =
  enter t ~entry:(sym t "rt$guard_load")
    ~regs:[ (Reg.ECX, selector); (Reg.EBX, offset) ]
