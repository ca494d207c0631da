(* Span recorder state, one per {!Sink}.

   Holds the record types and the per-sink stack and bounded ring;
   {!Span} is the facade that routes the classic global-looking API
   through the current sink.  Ring operations here are unconditional —
   enabling/disabling is the facade's concern — so {!Sink.merge} can
   replay one ring into another regardless of the destination's
   enabled flag.  Span ids come from a process-wide [Atomic.t] so they
   stay unique across domains — merged fleets keep unambiguous parent
   links. *)

type completed = {
  sp_id : int;
  sp_parent : int option;
  sp_name : string;
  sp_start : int;
  sp_stop : int;
  sp_depth : int;
  sp_track : int;
  sp_args : (string * string) list;
  sp_instant : bool;
}

(* The ring's storage grows on demand up to [capacity], so a sink that
   never records allocates none.  Until [stored] reaches [capacity] the
   entries sit in [0, stored) and [next] is 0; from then on [next] is
   the slot of the oldest entry, the one overwritten next. *)
type t = {
  mutable enabled : bool;
  mutable stack : completed list; (* open spans, innermost first *)
  mutable capacity : int;
  mutable ring : completed array;
  mutable next : int;
  mutable stored : int;
  mutable dropped : int;
}

let create () =
  { enabled = false; stack = []; capacity = 1024; ring = [||]; next = 0;
    stored = 0; dropped = 0 }

let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let clear t =
  t.stack <- [];
  t.ring <- [||];
  t.next <- 0;
  t.stored <- 0;
  t.dropped <- 0

(* Store [c], overwriting the oldest entry when the ring is full. *)
let push t c =
  let len = Array.length t.ring in
  if t.stored = len && len < t.capacity then begin
    let grown = Array.make (min t.capacity (max 64 (2 * len))) c in
    Array.blit t.ring 0 grown 0 len;
    t.ring <- grown
  end;
  if t.stored < Array.length t.ring then begin
    t.ring.(t.stored) <- c;
    t.stored <- t.stored + 1
  end
  else begin
    t.ring.(t.next) <- c;
    t.next <- (t.next + 1) mod t.stored;
    t.dropped <- t.dropped + 1
  end

(* Buffered entries in recording order, oldest first. *)
let entries t =
  List.init t.stored (fun i -> t.ring.((t.next + i) mod t.stored))

(* Completed spans, in start order (ties broken by id, i.e. begin
   order — parents before their children). *)
let spans t =
  List.sort
    (fun a b ->
      match compare a.sp_start b.sp_start with
      | 0 -> compare a.sp_id b.sp_id
      | c -> c)
    (entries t)

(* Keep the newest [min stored n] entries; the rest count as dropped. *)
let set_capacity t n =
  if n <= 0 then invalid_arg "Span.set_capacity";
  let keep = min t.stored n in
  let survivors = List.filteri (fun i _ -> i >= t.stored - keep) (entries t) in
  t.dropped <- t.dropped + (t.stored - keep);
  t.capacity <- n;
  t.ring <- Array.of_list survivors;
  t.next <- 0;
  t.stored <- keep

(* Replay [src]'s entries into [dst] (join-time merge) and carry its
   drop count.  Open spans are deliberately not carried over: an
   unfinished span in a joined world is an instrumentation bug local
   to that world. *)
let absorb dst src =
  List.iter (push dst) (entries src);
  dst.dropped <- dst.dropped + src.dropped
