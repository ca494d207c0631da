(** Filter expressions: conjunctions of header-field equality terms
    (the Figure 7 workload), compiled two ways to BPF. *)

type field = Ether_type | Ip_proto | Ip_src | Ip_dst | Src_port | Dst_port

type term = { field : field; value : int }

type t = term list
(** Conjunction; [[]] accepts everything. *)

val field_offset : field -> int * Bpf_insn.size

val term : field -> int -> term

val canonical : int -> t
(** The n-term filters of the Figure 7 sweep (0-6), matching the
    packet generator's target packet.  Raises [Invalid_argument]
    outside that range. *)

val to_bpf : t -> Bpf_insn.t array
(** Optimised compilation: one load + jeq per term. *)

type chk_item =
  | Ld of Bpf_insn.t
  | Chk of { cond : Bpf_insn.jmp_cond; k : int; fail_on_true : bool }

val to_bpf_tcpdump : t -> Bpf_insn.t array
(** tcpdump-style compilation — what the paper's baseline actually
    ran: each primitive re-verifies its protocol prerequisites, and
    port terms recompute the IP header length ([ldx msh] + indexed
    load) with a fragmentation check. *)

val matches : t -> packet:Bytes.t -> bool
(** Direct evaluation: the oracle both compilers are tested against. *)

val pp : t Fmt.t
