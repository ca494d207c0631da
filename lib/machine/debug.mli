(** Segmentation-aware debugging aids (paper section 6): translate
    hardware faults into the Palladium boundary that was crossed and
    disassemble executed instructions and generated stubs. *)

val explain_fault : cpl:X86.Privilege.ring -> X86.Fault.t -> string
(** The fault, its vector, and which extension-protection boundary it
    corresponds to with remediation advice. *)

val trace_listing : ?n:int -> Cpu.t -> string
(** The last [n] executed instructions (requires
    [Cpu.set_tracing cpu true]). *)

val disassemble : Cpu.t -> addr:int -> count:int -> string
(** Listing of [count] instruction slots starting at linear [addr]. *)
