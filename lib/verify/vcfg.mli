(** Control-flow decoding for the load-time verifier.

    Works on the {e raw} [Asm.program] item list — before assembly,
    before any loader appends transfer or PLT stubs — so the verifier
    judges exactly the code the extension author supplied.  Instruction
    indices count [Asm.I] items; index [i] sits at offset [org + 4*i]
    once assembled (every instruction occupies one [Instr.size] slot).

    Unlike [Asm.layout], duplicate labels are reported as data
    ([dup_labels]) rather than raised: the verifier's job is to explain
    why an image is unsafe, not to crash on it. *)

(** Where a static control-flow target lands. *)
type resolution =
  | Local of int  (** instruction index inside the program *)
  | External of string  (** declared import / kernel service / data symbol *)
  | Invalid of string  (** unresolvable: human-readable reason *)

(** A basic block: the half-open instruction range
    [\[b_start, b_start + b_len)].  Any control-transfer instruction is
    the last instruction of its block. *)
type block = {
  b_id : int;
  b_start : int;
  b_len : int;
  mutable b_succs : int list;  (** jump / branch / fall-through edges *)
  mutable b_calls : int list;  (** blocks entered by internal near calls *)
  mutable b_falls_off : bool;  (** control can run past the end of text *)
}

type t = {
  instrs : Instr.t array;
  labels : (string, int) Hashtbl.t;  (** label -> instruction index *)
  dup_labels : string list;
  org : int;
  externs : string -> bool;
  blocks : block array;
  block_of : int array;  (** instruction index -> block id *)
}

(** How control leaves an instruction. *)
type flow =
  | Next  (** falls through (includes returning calls) *)
  | Jump of Instr.target
  | Branch of Instr.target  (** conditional: target or fall-through *)
  | Call_to of Instr.target  (** near internal call; falls through *)
  | Stop  (** ret/lret/iret/hlt: leaves the program *)
  | Stop_ind  (** indirect jump: statically unknown destination *)

val flow_of : Instr.t -> flow

val resolve : t -> Instr.target -> resolution

val build : org:int -> externs:(string -> bool) -> Asm.program -> t

val n_instrs : t -> int

val n_blocks : t -> int

val entry_blocks : t -> entries:string list -> int list
(** Entry blocks for the given exported symbols; falls back to block 0
    when no entry resolves, so a program is never vacuously accepted. *)

val dfs : t -> roots:int list -> bool array * (int * int) list
(** Iterative three-colour DFS over jump {e and} call edges from the
    given roots.  Returns the reachability map and the back edges found
    (a back edge closes a cycle; via a call edge it witnesses
    recursion). *)

val block_offsets : t -> int list
(** Assembled offsets of every basic-block leader, in block order.
    Loaders hand these to the basic-block execution engine to
    pre-translate verified extension text at load time. *)

(** {2 Dominators and natural loops}

    Everything below works on the {e intra-routine} graph — [b_succs]
    only, never [b_calls] — rooted at a single entry block.  A
    routine's loops are a property of its own jump structure; calls are
    priced through {!Vsum} summaries instead.  This is the loop
    skeleton the {!Vcost} WCET analysis hangs trip bounds on. *)

val dominators : t -> entry:int -> int array
(** Immediate-dominator array by the iterative Cooper–Harvey–Kennedy
    algorithm over a reverse postorder of the jump-edge graph:
    [idom.(entry) = entry], and [idom.(b) = -1] for blocks unreachable
    from [entry]. *)

val dominates : int array -> int -> int -> bool
(** [dominates idom a b] walks the idom chain upward from [b]: true iff
    every path from the entry to [b] passes through [a] (reflexive). *)

val back_edges : t -> entry:int -> (int * int) list
(** Retreating edges [(src, dst)] of a DFS from [entry] over jump
    edges, in first-visit order.  An edge whose [dst] dominates [src]
    is a {e natural} back edge; the rest witness irreducible control
    flow (a cycle entered other than through its header), which the
    cost analysis refuses to bound. *)

type loop = {
  l_header : int;  (** block id of the loop header *)
  l_body : int list;  (** sorted block ids, header included *)
}

val loops : t -> entry:int -> loop list * (int * int) list
(** Natural loops of the routine rooted at [entry]: one {!loop} per
    header, sorted by header id (back edges sharing a header are
    merged), plus the retreating edges that do {e not} form natural
    loops — the irreducible remainder.  The body of the natural loop
    for back edge [(u, h)] is [h] plus every block that reaches [u]
    backwards without passing through [h]. *)
