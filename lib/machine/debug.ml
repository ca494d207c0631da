(* Segmentation-aware debugging aids (paper section 6: "better
   programming tools for extensions programming are needed, in
   particular, segmentation-aware debuggers").

   Faults raised by the protection hardware are terse; extension
   authors need them translated into which *Palladium boundary* was
   crossed and what to do about it.  [explain_fault] produces that
   translation and [trace_listing] a disassembly of the last
   instructions executed (enable with [Cpu.set_tracing]). *)

module F = X86.Fault
module P = X86.Privilege

(* Which protection boundary a fault corresponds to, given the
   privilege level the faulting code ran at. *)
let boundary ~(cpl : P.ring) (fault : F.t) =
  match (fault, cpl) with
  | (F.Page_privilege _ | F.Page_readonly _), P.R3 ->
      "user-extension confinement: an SPL 3 extension touched a page the \
       SPL 2 application keeps at PPL 0 (or read-only). Share the data \
       explicitly with set_range/expose_range, pass it through the shared \
       heap (xmalloc), or go through an application service."
  | F.Limit_violation _, P.R1 ->
      "kernel-extension confinement: the module addressed memory beyond its \
       extension segment's limit. Kernel pointers must be swizzled into \
       segment offsets (Kernel_ext.to_segment_offset) and only the shared \
       data area is meant for kernel/extension exchange."
  | F.Segment_privilege _, (P.R1 | P.R3) ->
      "privilege check: the extension loaded or used a selector more \
       privileged than itself. Extensions reach core services only through \
       the exported call gates."
  | F.Gate_privilege _, _ ->
      "call-gate DPL check: the caller is not privileged enough for this \
       gate. Application services are DPL 3; kernel services exposed to \
       extensions are DPL 1."
  | F.Invalid_transfer _, _ ->
      "control-transfer rule: x86 never raises privilege without a gate and \
       never returns upward. If this came from a hand-built lret frame, the \
       synthesised CS/SS selectors are wrong (Stub_gen builds them \
       correctly)."
  | F.Null_selector, _ ->
      "null segment register: a privilege-lowering lret invalidated a data \
       segment that stayed more privileged than the new CPL. Reload DS/ES \
       after descending (the kernel Transfer stubs do this)."
  | F.Page_key _, _ ->
      "protection-key confinement: a data access was denied by the page's \
       protection key under the current PKRU. Under the MPK backend the \
       application's rights exclude extension-private pages (and vice \
       versa); cross the boundary through the generated WRPKRU stubs or \
       share the data via expose_range."
  | F.Page_not_present _, _ ->
      "page not present and not demand-mappable: the address lies outside \
       every vm_area (an unmapped pointer), or its area was unmapped."
  | (F.Descriptor_missing _ | F.Segment_not_present _), _ ->
      "dangling selector: the descriptor slot is empty or not present — \
       commonly a reference into an aborted extension segment whose \
       descriptors were reclaimed."
  | F.Segment_type _, _ ->
      "segment-type check: write through a code/read-only segment or \
       execute through a data segment."
  | (F.Page_privilege _ | F.Page_readonly _ | F.Limit_violation _
    | F.Segment_privilege _), _ ->
      "protection check failed in privileged code: likely a substrate (not \
       extension) bug."

let explain_fault ~cpl fault =
  Fmt.str "@[<v>%a (vector %d, at %a)@,%s@]" F.pp fault (F.vector fault) P.pp
    cpl
    (boundary ~cpl fault)

(* Post-mortem dump: registers, segment registers with their cached
   descriptors, and the recent trace when tracing was on. *)
let trace_listing ?(n = 16) cpu =
  let lines =
    List.map
      (fun (eip, instr) -> Fmt.str "  %#010x  %a" eip Instr.pp instr)
      (Cpu.recent_trace ~n cpu)
  in
  match lines with
  | [] -> "  (tracing disabled: Cpu.set_tracing cpu true)"
  | _ -> String.concat "\n" lines

(* Disassemble a code range (for inspecting generated stubs). *)
let disassemble cpu ~addr ~count =
  let buf = Buffer.create 256 in
  for idx = 0 to count - 1 do
    let a = addr + (idx * Instr.size) in
    (match Code_mem.fetch (Cpu.code cpu) ~addr:a with
    | Some instr -> Buffer.add_string buf (Fmt.str "%#010x  %a\n" a Instr.pp instr)
    | None -> Buffer.add_string buf (Fmt.str "%#010x  (no code)\n" a))
  done;
  Buffer.contents buf
