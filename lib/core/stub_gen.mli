(** Generation of the Figure 6 control-transfer sequences.

    A logical call from a more-privileged core into a less-privileged
    extension is synthesised as two intra-domain calls plus an
    inter-domain [lret] over a phantom activation record; the logical
    return is two intra-domain [ret]s plus an inter-domain [lcall]
    through a call gate.  [Mark] pseudo-instructions (zero cycles)
    delimit the Table 1 phases. *)

(** Inputs for one extension function's Prepare/Transfer pair. *)
type fn_stub_spec = {
  fn_name : string;  (** unique; labels and marks derive from it *)
  fn_addr : int;  (** extension function address (segment offset) *)
  ext_cs : int;  (** encoded extension code-segment selector *)
  ext_ss : int;  (** encoded extension stack-segment selector *)
  ext_stack_ptr : int;  (** initial extension ESP (= argument slot) *)
  sp2_slot : int;  (** where Prepare saves the caller's ESP *)
  bp2_slot : int;  (** where Prepare saves the caller's EBP *)
  return_gate : int;  (** encoded AppCallGate selector *)
}

val prepare_label : fn_stub_spec -> string

val prepare_transfer : fn_stub_spec -> Asm.program
(** User-level Prepare + Transfer (both stubs share one program; the
    bases of application and extension segments coincide). *)

val app_call_gate :
  ?reload_ds:int ->
  label:string ->
  mark_prefix:string ->
  sp2_slot:int ->
  bp2_slot:int ->
  unit ->
  Asm.program
(** The per-application (or per-kernel) return gate target: restore
    the saved stack/base pointers and return locally.  [reload_ds] is
    required by the kernel variant, whose DS was invalidated by the
    privilege-lowering lret. *)

val kernel_prepare :
  fn_stub_spec -> arg_slot_addr:int -> transfer_addr:int -> Asm.program
(** Kernel-side Prepare: as the user one, plus re-pointing the TSS
    ring-0 stack below the live kernel frames (set_sp0) before the
    lret.  [arg_slot_addr] is the argument slot as seen through the
    kernel's DS (base 3 GB), while [spec.ext_stack_ptr] remains the
    extension-segment-relative ESP. *)

(** Inputs for one extension function's protection-key entry stub. *)
type mpk_stub_spec = {
  mk_fn_name : string;  (** unique; labels and marks derive from it *)
  mk_fn_addr : int;  (** extension function address (flat) *)
  mk_ext_stack_ptr : int;  (** initial extension ESP (= argument slot) *)
  mk_sp2_slot : int;  (** where the stub saves the caller's ESP *)
  mk_bp2_slot : int;  (** where the stub saves the caller's EBP *)
  mk_ext_pkru : int;  (** PKRU while the extension runs *)
}

val mpk_prepare_label : mpk_stub_spec -> string

val mpk_prepare : mpk_stub_spec -> Asm.program
(** The MPK protected-call stub: copy the argument, save ESP/EBP,
    switch to the extension stack, [wrpkru] down to extension rights,
    call the function, [wrpkru] back up and restore.  No phantom
    record, no gates, no ring change — the transfer cost is two
    [wrpkru]s instead of an [lret]/[lcall] pair. *)

val app_service : label:string -> kcall_name:string -> Asm.program
(** An application-service stub reached through a DPL 3 call gate: it
    points EBX at the arguments the extension pushed on its own stack
    and runs the OCaml service body via [Kcall] (section 4.5.1). *)
