(* Generation of the three control-transfer code sequences of
   Figure 6, for both the user-level and the kernel-level extension
   mechanisms.

   A logical call from a more-privileged core into a less-privileged
   extension is synthesised as two intra-domain calls plus an
   inter-domain lret over a phantom activation record; the logical
   return is two intra-domain rets plus an inter-domain lcall through
   a call gate.

   [Mark] pseudo-instructions carry zero cycle cost and delimit the
   phases reported in Table 1. *)

open Asm

let i x = I x

let reg r = Operand.Reg r

let imm v = Operand.Imm v

let absolute a = Operand.absolute a

(* Inputs for one extension function's Prepare/Transfer pair. *)
type fn_stub_spec = {
  fn_name : string; (* unique; used to derive labels and marks *)
  fn_addr : int; (* address (segment offset) of the extension function *)
  ext_cs : int; (* encoded selector of the extension code segment *)
  ext_ss : int; (* encoded selector of the extension stack segment *)
  ext_stack_ptr : int; (* initial extension ESP; the argument slot *)
  sp2_slot : int; (* where Prepare saves the caller's ESP *)
  bp2_slot : int; (* where Prepare saves the caller's EBP *)
  return_gate : int; (* encoded call-gate selector of AppCallGate *)
}

let prepare_label spec = "prepare$" ^ spec.fn_name

let transfer_label spec = "transfer$" ^ spec.fn_name

(* Prepare (runs in the core's domain): copy the argument to the
   extension stack, save the caller's stack/base pointers, build the
   phantom activation record [transfer; ext_cs; ext_esp; ext_ss] and
   lret through it.  Transfer (runs in the extension's domain): call
   the extension function locally, then come back through the return
   gate. *)
let prepare_transfer spec =
  [
    L (prepare_label spec);
    i (Instr.Mark (spec.fn_name ^ ".setup"));
    i (Instr.Push (Operand.deref ~disp:4 Reg.ESP)); (* pushl 0x4(%esp) *)
    i (Instr.Pop (absolute spec.ext_stack_ptr)); (* popl ExtensionStack *)
    i (Instr.Mov (absolute spec.sp2_slot, reg Reg.ESP)); (* movl %esp, SP2 *)
    i (Instr.Mov (absolute spec.bp2_slot, reg Reg.EBP)); (* movl %ebp, BP2 *)
    i (Instr.Push (imm spec.ext_ss)); (* push ExtensionStackSegment *)
    i (Instr.Push (imm spec.ext_stack_ptr)); (* pushl ExtensionStackPointer *)
    i (Instr.Push (imm spec.ext_cs)); (* push ExtensionCodeSegment *)
    i (Instr.Push (Operand.label (transfer_label spec))); (* push Transfer *)
    i (Instr.Mark (spec.fn_name ^ ".call"));
    i Instr.Lret;
    L (transfer_label spec);
    i (Instr.Call (Instr.Abs spec.fn_addr)); (* call ExtensionFunction *)
    i (Instr.Mark (spec.fn_name ^ ".return"));
    i (Instr.Lcall spec.return_gate); (* lcall AppCallGateNum *)
  ]

(* AppCallGate (one per application, runs in the core's domain after
   the inter-domain lcall): restore the caller's stack and base
   pointers and return locally into the core.  [reload_ds] is needed
   by the kernel variant: the privilege-lowering lret that entered the
   extension invalidated the kernel's DS (hardware nulls data segments
   that would stay more privileged than the new CPL), so the gate
   must reload it before touching memory.  The user-level mechanism
   needs no reload — its DS is the DPL 3 user data segment throughout,
   one of the transparency wins of the same-base design. *)
let app_call_gate ?reload_ds ~label ~mark_prefix ~sp2_slot ~bp2_slot () =
  [ L label; i (Instr.Mark (mark_prefix ^ ".restore")) ]
  @ (match reload_ds with
    | Some sel -> [ i (Instr.Mov_to_sreg (Reg.DS, imm sel)) ]
    | None -> [])
  @ [
      i (Instr.Mov (reg Reg.ESP, absolute sp2_slot)); (* mov SP2, %esp *)
      i (Instr.Mov (reg Reg.EBP, absolute bp2_slot)); (* mov BP2, %ebp *)
      i Instr.Ret;
    ]

(* Kernel variant of Prepare: identical shape, except that the TSS
   ring-0 stack pointer must be re-pointed below the live kernel
   frames so the extension's return through the kernel call gate does
   not clobber them.  In the kernel this is a cheap direct store to
   the TSS (no system call needed) — represented by the set_sp0
   kernel upcall. *)
let kernel_prepare spec ~arg_slot_addr ~transfer_addr =
  [
    L (prepare_label spec);
    i (Instr.Mark (spec.fn_name ^ ".setup"));
    i (Instr.Push (Operand.deref ~disp:4 Reg.ESP));
    i (Instr.Pop (absolute arg_slot_addr));
    i (Instr.Mov (absolute spec.sp2_slot, reg Reg.ESP));
    i (Instr.Mov (absolute spec.bp2_slot, reg Reg.EBP));
    i (Instr.Kcall "set_sp0");
    i (Instr.Push (imm spec.ext_ss));
    i (Instr.Push (imm spec.ext_stack_ptr));
    i (Instr.Push (imm spec.ext_cs));
    i (Instr.Push (imm transfer_addr));
    i (Instr.Mark (spec.fn_name ^ ".call"));
    i Instr.Lret;
  ]

(* --- MPK backend ---------------------------------------------------- *)

(* Inputs for one extension function's protection-key entry stub. *)
type mpk_stub_spec = {
  mk_fn_name : string; (* unique; labels and marks derive from it *)
  mk_fn_addr : int; (* extension function address (flat) *)
  mk_ext_stack_ptr : int; (* initial extension ESP; the argument slot *)
  mk_sp2_slot : int; (* where the stub saves the caller's ESP *)
  mk_bp2_slot : int; (* where the stub saves the caller's EBP *)
  mk_ext_pkru : int; (* rights while the extension runs *)
}

let mpk_prepare_label spec = "mprep$" ^ spec.mk_fn_name

(* The whole protected call is one stub: no phantom record, no call
   gate, no ring change.  The stack switch MUST precede the rights
   drop — under the extension PKRU the application stack is key-denied,
   so a push after the wrpkru would fault.  Jumping into the exit half
   early merely terminates the call (it restores the application's
   saved frame and returns into the runtime), the same early-out the
   segmentation return gate allows. *)
let mpk_prepare spec =
  [
    L (mpk_prepare_label spec);
    i (Instr.Mark (spec.mk_fn_name ^ ".setup"));
    i (Instr.Push (Operand.deref ~disp:4 Reg.ESP)); (* pushl 0x4(%esp) *)
    i (Instr.Pop (absolute spec.mk_ext_stack_ptr)); (* popl ExtensionStack *)
    i (Instr.Mov (absolute spec.mk_sp2_slot, reg Reg.ESP)); (* movl %esp, SP2 *)
    i (Instr.Mov (absolute spec.mk_bp2_slot, reg Reg.EBP)); (* movl %ebp, BP2 *)
    i (Instr.Mov (reg Reg.ESP, imm spec.mk_ext_stack_ptr)); (* switch stacks *)
    i (Instr.Mark (spec.mk_fn_name ^ ".call"));
    i (Instr.Wrpkru (imm spec.mk_ext_pkru)); (* drop to extension rights *)
    i (Instr.Call (Instr.Abs spec.mk_fn_addr)); (* call ExtensionFunction *)
    i (Instr.Mark (spec.mk_fn_name ^ ".return"));
    i (Instr.Wrpkru (imm 0)); (* regain the application's full rights *)
    i (Instr.Mark (spec.mk_fn_name ^ ".restore"));
    i (Instr.Mov (reg Reg.ESP, absolute spec.mk_sp2_slot)); (* mov SP2, %esp *)
    i (Instr.Mov (reg Reg.EBP, absolute spec.mk_bp2_slot)); (* mov BP2, %ebp *)
    i Instr.Ret;
  ]

(* Application-service stub (section 4.5.1, last paragraph): entered
   at the core's privilege level through a DPL 3 call gate.  The
   service executes against the extension's own stack: EBX is pointed
   at the argument words the extension pushed before the lcall (read
   from the gate frame), the OCaml-side service body runs via Kcall,
   and lret returns to the extension. *)
let app_service ~label ~kcall_name =
  [
    L label;
    (* gate frame: [eip][cs][old esp][old ss]; old esp points at args *)
    i (Instr.Mov (reg Reg.EBX, Operand.deref ~disp:8 Reg.ESP));
    i (Instr.Kcall kcall_name);
    i Instr.Lret;
  ]
