(** The BPF interpreter written in the simulated instruction set and
    loaded as a classic (unprotected) kernel module — the Figure 7
    baseline.  Because it runs on the simulated CPU, its dispatch and
    packet-load costs are measured rather than assumed.

    In-memory program encoding: 16 bytes per instruction, four
    little-endian u32 words [code; jt; jf; k]. *)

val image : Image.t
(** The interpreter module image (text + bpf_prog/bpf_pkt/bpf_mem
    data), exporting [bpf_run]. *)

type t

val load : Kernel.t -> t
(** insmod the interpreter into the kernel. *)

val set_program : t -> Bpf_insn.t array -> unit
(** Validate and install a filter; resets the scratch memory.  Raises
    [Bpf_insn.Invalid_program] on invalid or oversized programs. *)

val set_packet : t -> Bytes.t -> unit

val run : t -> Task.t -> int * int
(** Execute the installed filter over the installed packet at CPL 0;
    returns (accept value, cycles). *)
