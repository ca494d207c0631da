(* Control-flow decoding for the load-time verifier.

   Works on the *raw* [Asm.program] item list — before assembly, before
   any loader appends transfer or PLT stubs — so the verifier judges
   exactly the code the extension author supplied.  Instruction indices
   count [Asm.I] items; index [i] sits at offset [org + 4*i] once
   assembled (every instruction occupies one [Instr.size] slot).

   Unlike [Asm.layout], duplicate labels are reported as diagnostics
   rather than raised: the verifier's job is to explain why an image is
   unsafe, not to crash on it. *)

type resolution =
  | Local of int (* instruction index inside the program *)
  | External of string (* declared import / kernel service / data symbol *)
  | Invalid of string (* unresolvable: human-readable reason *)

(* A basic block is the half-open instruction range
   [b_start, b_start + b_len).  Any control-transfer instruction is the
   last instruction of its block. *)
type block = {
  b_id : int;
  b_start : int;
  b_len : int;
  mutable b_succs : int list; (* jump / branch / fall-through edges *)
  mutable b_calls : int list; (* blocks entered by internal near calls *)
  mutable b_falls_off : bool; (* control can run past the end of text *)
}

type t = {
  instrs : Instr.t array;
  labels : (string, int) Hashtbl.t; (* label -> instruction index *)
  dup_labels : string list;
  org : int;
  externs : string -> bool;
  blocks : block array;
  block_of : int array; (* instruction index -> block id *)
}

(* How control leaves an instruction. *)
type flow =
  | Next (* falls through (includes calls: they return) *)
  | Jump of Instr.target
  | Branch of Instr.target (* conditional: target or fall-through *)
  | Call_to of Instr.target (* near internal call; falls through *)
  | Stop (* ret/lret/iret/hlt: leaves the program *)
  | Stop_ind (* indirect jump: statically unknown destination *)

let flow_of : Instr.t -> flow = function
  | Instr.Jmp t -> Jump t
  | Instr.Jcc (_, t) -> Branch t
  | Instr.Call t -> Call_to t
  | Instr.Jmp_ind _ -> Stop_ind
  | Instr.Ret | Instr.Ret_imm _ | Instr.Lret | Instr.Lret_imm _ | Instr.Iret | Instr.Hlt -> Stop
  | _ -> Next (* Call_ind / Lcall / Lcall_ind / Int_ / Kcall return *)

let resolve t (tgt : Instr.target) : resolution =
  match tgt with
  | Instr.Label l -> (
      match Hashtbl.find_opt t.labels l with
      | Some i when i < Array.length t.instrs -> Local i
      | Some _ -> Invalid (Printf.sprintf "label %s marks the end of the text" l)
      | None ->
          if t.externs l then External l
          else Invalid (Printf.sprintf "unknown control-flow target %s" l))
  | Instr.Abs a ->
      let rel = a - t.org in
      if rel land (Instr.size - 1) <> 0 then
        Invalid (Printf.sprintf "target %#x is not an instruction boundary" a)
      else
        let i = rel asr 2 in
        if i >= 0 && i < Array.length t.instrs then Local i
        else Invalid (Printf.sprintf "target %#x lies outside the text" a)

let build ~org ~externs (program : Asm.program) : t =
  (* Pass 1: label table and instruction array. *)
  let labels = Hashtbl.create 16 in
  let dups = ref [] in
  let rev_instrs = ref [] in
  let n = ref 0 in
  List.iter
    (function
      | Asm.L name ->
          if Hashtbl.mem labels name then dups := name :: !dups
          else Hashtbl.replace labels name !n
      | Asm.I i ->
          rev_instrs := i :: !rev_instrs;
          incr n)
    program;
  let instrs = Array.of_list (List.rev !rev_instrs) in
  let n = Array.length instrs in
  let t =
    {
      instrs;
      labels;
      dup_labels = List.rev !dups;
      org;
      externs;
      blocks = [||];
      block_of = [||];
    }
  in
  if n = 0 then t
  else begin
    (* Pass 2: leaders.  Index 0, every labelled index, every branch /
       call target, and every instruction after a control transfer. *)
    let leader = Array.make n false in
    leader.(0) <- true;
    Hashtbl.iter (fun _ i -> if i < n then leader.(i) <- true) labels;
    let mark_target tgt =
      match resolve t tgt with Local i -> leader.(i) <- true | External _ | Invalid _ -> ()
    in
    Array.iteri
      (fun i instr ->
        match flow_of instr with
        | Next -> ()
        | Jump tgt | Branch tgt | Call_to tgt ->
            mark_target tgt;
            if i + 1 < n then leader.(i + 1) <- true
        | Stop | Stop_ind -> if i + 1 < n then leader.(i + 1) <- true)
      instrs;
    (* Pass 3: carve blocks. *)
    let blocks = ref [] in
    let block_of = Array.make n (-1) in
    let id = ref 0 in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      incr i;
      while !i < n && not leader.(!i) do
        incr i
      done;
      let b = { b_id = !id; b_start = start; b_len = !i - start; b_succs = []; b_calls = []; b_falls_off = false } in
      for j = start to !i - 1 do
        block_of.(j) <- !id
      done;
      blocks := b :: !blocks;
      incr id
    done;
    let blocks = Array.of_list (List.rev !blocks) in
    let t = { t with blocks; block_of } in
    (* Pass 4: edges. *)
    Array.iter
      (fun b ->
        let last = b.b_start + b.b_len - 1 in
        let fallthrough () =
          if last + 1 < n then b.b_succs <- block_of.(last + 1) :: b.b_succs
          else b.b_falls_off <- true
        in
        let edge_to tgt =
          match resolve t tgt with
          | Local i -> b.b_succs <- block_of.(i) :: b.b_succs
          | External _ | Invalid _ -> ()
          (* external: leaves the program; invalid: diagnosed separately *)
        in
        match flow_of t.instrs.(last) with
        | Next -> fallthrough ()
        | Jump tgt -> edge_to tgt
        | Branch tgt ->
            fallthrough ();
            edge_to tgt
        | Call_to tgt -> (
            fallthrough ();
            match resolve t tgt with
            | Local i -> b.b_calls <- block_of.(i) :: b.b_calls
            | External _ | Invalid _ -> ())
        | Stop | Stop_ind -> ())
      blocks;
    t
  end

let n_instrs t = Array.length t.instrs

let n_blocks t = Array.length t.blocks

(* Entry blocks for the given exported symbols; falls back to block 0
   when no entry resolves (or none was declared) so that a program is
   never vacuously accepted. *)
let entry_blocks t ~entries =
  let found =
    List.filter_map
      (fun name ->
        match Hashtbl.find_opt t.labels name with
        | Some i when i < n_instrs t -> Some t.block_of.(i)
        | _ -> None)
      entries
  in
  let found = List.sort_uniq compare found in
  if found = [] && n_blocks t > 0 then [ 0 ] else found

(* Iterative three-colour DFS over jump *and* call edges from the given
   roots.  Returns the reachability map and the back edges found (a
   back edge closes a cycle; via a call edge it witnesses recursion). *)
let dfs t ~roots =
  let nb = n_blocks t in
  let colour = Array.make nb 0 in
  (* 0 white, 1 grey, 2 black *)
  let back = ref [] in
  let rec visit u =
    colour.(u) <- 1;
    List.iter
      (fun v ->
        if colour.(v) = 0 then visit v
        else if colour.(v) = 1 then back := (u, v) :: !back)
      (t.blocks.(u).b_succs @ t.blocks.(u).b_calls);
    colour.(u) <- 2
  in
  List.iter (fun r -> if r >= 0 && r < nb && colour.(r) = 0 then visit r) roots;
  let reachable = Array.map (fun c -> c <> 0) colour in
  (reachable, List.rev !back)

(* Assembled offsets of every basic-block leader: [org + size * b_start]
   for each block, in block order.  Loaders hand these to the
   basic-block execution engine to pre-translate verified extension
   text at load time. *)
let block_offsets t =
  Array.to_list
    (Array.map (fun b -> t.org + (Instr.size * b.b_start)) t.blocks)

(* ------------------------------------------------------------------ *)
(* Dominators and natural loops (per-routine, jump edges only)         *)
(* ------------------------------------------------------------------ *)

(* Everything below works on the *intra-routine* graph — [b_succs]
   only, never [b_calls] — rooted at a single entry block.  A routine's
   loops are a property of its own jump structure; calls are priced
   through {!Vsum} summaries instead.

   [dominators t ~entry] is the classic iterative algorithm of Cooper,
   Harvey and Kennedy over a reverse postorder: it returns the
   immediate-dominator array [idom] with [idom.(entry) = entry] and
   [idom.(b) = -1] for blocks unreachable from [entry]. *)
let dominators t ~entry =
  let nb = n_blocks t in
  let idom = Array.make nb (-1) in
  if nb = 0 || entry < 0 || entry >= nb then idom
  else begin
    (* Postorder DFS from the entry over jump edges. *)
    let order = ref [] (* reverse postorder, built back to front *) in
    let seen = Array.make nb false in
    let rec visit u =
      seen.(u) <- true;
      List.iter (fun v -> if not seen.(v) then visit v) t.blocks.(u).b_succs;
      order := u :: !order
    in
    visit entry;
    let rpo = Array.of_list !order in
    let rpo_num = Array.make nb (-1) in
    Array.iteri (fun i b -> rpo_num.(b) <- i) rpo;
    (* Jump-edge predecessors restricted to the reachable subgraph. *)
    let preds = Array.make nb [] in
    Array.iter
      (fun u ->
        List.iter
          (fun v -> if seen.(v) then preds.(v) <- u :: preds.(v))
          t.blocks.(u).b_succs)
      rpo;
    let intersect a b =
      let a = ref a and b = ref b in
      while !a <> !b do
        while rpo_num.(!a) > rpo_num.(!b) do
          a := idom.(!a)
        done;
        while rpo_num.(!b) > rpo_num.(!a) do
          b := idom.(!b)
        done
      done;
      !a
    in
    idom.(entry) <- entry;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          if b <> entry then begin
            let new_idom =
              List.fold_left
                (fun acc p ->
                  if idom.(p) = -1 then acc
                  else match acc with None -> Some p | Some a -> Some (intersect p a))
                None preds.(b)
            in
            match new_idom with
            | Some ni when idom.(b) <> ni ->
                idom.(b) <- ni;
                changed := true
            | _ -> ()
          end)
        rpo
    done;
    idom
  end

let dominates idom a b =
  (* Does [a] dominate [b]?  Walk the idom chain from [b] upward. *)
  let rec up b = if b = a then true else if idom.(b) = b || idom.(b) = -1 then false else up idom.(b) in
  if idom.(b) = -1 then false else up b

(* Retreating edges [(src, dst)] of a DFS from [entry] over jump edges.
   An edge where [dst] dominates [src] is a *natural* back edge; the
   rest witness irreducible control flow (a cycle entered other than
   through its header), which the cost analysis refuses to bound. *)
let back_edges t ~entry =
  let nb = n_blocks t in
  if nb = 0 || entry < 0 || entry >= nb then []
  else begin
    let colour = Array.make nb 0 in
    let back = ref [] in
    let rec visit u =
      colour.(u) <- 1;
      List.iter
        (fun v ->
          if colour.(v) = 0 then visit v
          else if colour.(v) = 1 then back := (u, v) :: !back)
        t.blocks.(u).b_succs;
      colour.(u) <- 2
    in
    visit entry;
    List.rev !back
  end

type loop = {
  l_header : int; (* block id of the loop header *)
  l_body : int list; (* sorted block ids, header included *)
}

(* Natural loops of the routine rooted at [entry]: one [loop] per
   header (back edges sharing a header are merged), plus the list of
   irreducible retreating edges that do not form natural loops.  The
   body of the natural loop for back edge [(u, h)] is [h] plus every
   block that reaches [u] backwards without passing through [h]. *)
let loops t ~entry =
  let idom = dominators t ~entry in
  let edges = back_edges t ~entry in
  let natural, irreducible =
    List.partition (fun (u, h) -> dominates idom h u) edges
  in
  let nb = n_blocks t in
  let preds = Array.make nb [] in
  Array.iter
    (fun b -> List.iter (fun v -> if v < nb then preds.(v) <- b.b_id :: preds.(v)) b.b_succs)
    t.blocks;
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (u, h) ->
      let body =
        match Hashtbl.find_opt tbl h with Some s -> s | None -> Hashtbl.create 8
      in
      Hashtbl.replace body h ();
      let rec pull b =
        if not (Hashtbl.mem body b) then begin
          Hashtbl.replace body b ();
          List.iter pull preds.(b)
        end
      in
      pull u;
      Hashtbl.replace tbl h body)
    natural;
  let ls =
    Hashtbl.fold
      (fun h body acc ->
        let ids = Hashtbl.fold (fun b () acc -> b :: acc) body [] in
        { l_header = h; l_body = List.sort compare ids } :: acc)
      tbl []
  in
  (List.sort (fun a b -> compare a.l_header b.l_header) ls, irreducible)
