(* Bench-local spans for the traced run.

   The suite wraps every call it makes into a layer of the simulator in
   a span named after that layer ([core.call.seg], [kern.boot], ...), and
   each workload op in a root [bench.op] span.  Spans are recorded here,
   not through [Obs.Span]: switching that on would also turn on the
   spans inside the program, which is a different measurement.

   Self time (a span's duration minus the time its children cover) is
   accumulated per span kind as spans close, so it covers every span of
   the run; the first [capacity] spans are also kept in preallocated
   arrays and written out at exit.  A disabled tracer costs a call and
   a branch per span and allocates nothing. *)

let names =
  [|
    "bench.op"; "core.call.seg"; "core.call.mpk"; "core.fault_call";
    "core.load"; "core.create_app"; "core.poke"; "core.peek";
    "core.kext_invoke"; "core.xmalloc"; "kern.boot"; "kern.teardown";
    "kern.mmap"; "bpf.interp_run"; "bpf.set_packet"; "websrv.server_run";
  |]

let op = 0
and call_seg = 1
and call_mpk = 2
and fault_call = 3
and load = 4
and create_app = 5
and poke = 6
and peek = 7
and kext_invoke = 8
and xmalloc = 9
and boot = 10
and teardown = 11
and mmap = 12
and interp_run = 13
and set_packet = 14
and server_run = 15

let kinds = Array.length names

let capacity = 32_768

let max_depth = 8

type t = {
  on : bool;
  t0 : int;
  (* open-span stack *)
  st_kind : int array;
  st_start : int array;
  st_child : int array;
  st_slot : int array;
  mutable depth : int;
  (* per-kind aggregates over every closed span *)
  self_ns : int array;
  total_ns : int array;
  count : int array;
  (* the first [capacity] spans *)
  b_kind : int array;
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_op : int array;
  mutable n : int;
  mutable dropped : int;
  mutable op_id : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ~on =
  let buf () = Array.make (if on then capacity else 0) 0 in
  let stack () = Array.make max_depth 0 in
  {
    on;
    t0 = now_ns ();
    st_kind = stack ();
    st_start = stack ();
    st_child = stack ();
    st_slot = stack ();
    depth = 0;
    self_ns = Array.make kinds 0;
    total_ns = Array.make kinds 0;
    count = Array.make kinds 0;
    b_kind = buf ();
    b_start = buf ();
    b_stop = buf ();
    b_parent = buf ();
    b_op = buf ();
    n = 0;
    dropped = 0;
    op_id = 0;
  }

let off = create ~on:false

let enter t kind =
  if t.on then begin
    let now = now_ns () in
    let d = t.depth in
    if kind = op then t.op_id <- t.op_id + 1;
    t.st_kind.(d) <- kind;
    t.st_start.(d) <- now;
    t.st_child.(d) <- 0;
    if t.n < capacity then begin
      let i = t.n in
      t.n <- i + 1;
      t.b_kind.(i) <- kind;
      t.b_start.(i) <- now - t.t0;
      t.b_stop.(i) <- now - t.t0;
      t.b_parent.(i) <- (if d > 0 then t.st_slot.(d - 1) else -1);
      t.b_op.(i) <- t.op_id;
      t.st_slot.(d) <- i
    end
    else begin
      t.dropped <- t.dropped + 1;
      t.st_slot.(d) <- -1
    end;
    t.depth <- d + 1
  end

let leave t =
  if t.on then begin
    let now = now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let kind = t.st_kind.(d) in
    let dur = now - t.st_start.(d) in
    t.self_ns.(kind) <- t.self_ns.(kind) + dur - t.st_child.(d);
    t.total_ns.(kind) <- t.total_ns.(kind) + dur;
    t.count.(kind) <- t.count.(kind) + 1;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let slot = t.st_slot.(d) in
    if slot >= 0 then t.b_stop.(slot) <- now - t.t0
  end

(* Move [src]'s spans and aggregates into [into] and empty [src].  Each
   world of a fleet traces into a tracer of its own, since worlds run on
   different domains, and is folded into the run's tracer after each
   repeat. *)
let absorb ~into src =
  for k = 0 to kinds - 1 do
    into.self_ns.(k) <- into.self_ns.(k) + src.self_ns.(k);
    into.total_ns.(k) <- into.total_ns.(k) + src.total_ns.(k);
    into.count.(k) <- into.count.(k) + src.count.(k)
  done;
  let shift = src.t0 - into.t0 and base = into.n and ops = into.op_id in
  let kept = min src.n (capacity - base) in
  for i = 0 to kept - 1 do
    let j = base + i in
    into.b_kind.(j) <- src.b_kind.(i);
    into.b_start.(j) <- src.b_start.(i) + shift;
    into.b_stop.(j) <- src.b_stop.(i) + shift;
    into.b_parent.(j) <-
      (if src.b_parent.(i) < 0 then -1 else src.b_parent.(i) + base);
    into.b_op.(j) <- src.b_op.(i) + ops
  done;
  into.n <- base + kept;
  into.dropped <- into.dropped + src.dropped + (src.n - kept);
  into.op_id <- ops + src.op_id;
  Array.fill src.self_ns 0 kinds 0;
  Array.fill src.total_ns 0 kinds 0;
  Array.fill src.count 0 kinds 0;
  src.n <- 0;
  src.dropped <- 0;
  src.op_id <- 0

(* Median duration, in ns, of the kept spans of [kind]. *)
let median_ns t kind =
  let d = ref [] in
  for i = t.n - 1 downto 0 do
    if t.b_kind.(i) = kind then d := float_of_int (t.b_stop.(i) - t.b_start.(i)) :: !d
  done;
  Quantiles.median !d

let total_ns t kind = t.total_ns.(kind)

let layer_of name = String.sub name 0 (String.index name '.')

(* Self nanoseconds per layer ("bench", "core", ...). *)
let layer_self t =
  List.sort_uniq String.compare (Array.to_list (Array.map layer_of names))
  |> List.map (fun l ->
         let s = ref 0 in
         Array.iteri (fun k name -> if layer_of name = l then s := !s + t.self_ns.(k)) names;
         (l, !s))

(* Share of root-span time no child span covers: the bench's own work
   between layer calls (input staging, oracles, clock reads). *)
let unattributed_frac t =
  if t.total_ns.(op) = 0 then nan
  else float_of_int t.self_ns.(op) /. float_of_int t.total_ns.(op)

let print_table t ~ops =
  let total = Array.fold_left ( + ) 0 t.self_ns in
  Printf.printf "%-18s %10s %12s %12s %7s\n" "span" "count" "total_ms"
    "self_us/op" "self%";
  Array.iteri
    (fun k name ->
      if t.count.(k) > 0 then
        Printf.printf "%-18s %10d %12.3f %12.4f %6.1f%%\n" name t.count.(k)
          (float_of_int t.total_ns.(k) /. 1e6)
          (float_of_int t.self_ns.(k) /. 1e3 /. float_of_int (max 1 ops))
          (100. *. float_of_int t.self_ns.(k) /. float_of_int (max 1 total)))
    names;
  List.iter
    (fun (l, s) ->
      if s > 0 then
        Printf.printf "layer %-12s self %10.4f us/op %6.1f%%\n" l
          (float_of_int s /. 1e3 /. float_of_int (max 1 ops))
          (100. *. float_of_int s /. float_of_int (max 1 total)))
    (layer_self t)

let to_json t ~workload =
  let open Obs.Json in
  Obj
    [
      ("schema", String "palladium.suite.trace.v1");
      ("workload", String workload);
      ("clock", String "monotonic ns since tracer start");
      ("columns", List [ String "name"; String "start_ns"; String "end_ns";
                         String "parent"; String "op" ]);
      ("dropped", Int t.dropped);
      ( "spans",
        List
          (List.init t.n (fun i ->
               List
                 [
                   String names.(t.b_kind.(i)); Int t.b_start.(i);
                   Int t.b_stop.(i); Int t.b_parent.(i); Int t.b_op.(i);
                 ])) );
      ( "self_ns",
        Obj
          (Array.to_list
             (Array.mapi (fun k name -> (name, Int t.self_ns.(k))) names)) );
    ]
