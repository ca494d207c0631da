(* Exporters over the observability registries: Chrome trace-event
   JSON (loadable in Perfetto / chrome://tracing), Prometheus-style
   text exposition, and folded stacks for flamegraph tools.

   All three are pure views — they read Span/Counters/Histogram state
   and produce a value, so they can be called repeatedly and tested
   without touching the filesystem. *)

(* --- Chrome trace-event JSON ----------------------------------------- *)

(* Complete ("ph":"X") events, and thread-scoped instant ("ph":"i")
   events for instants; [ts]/[dur] are emitted in the span's own stamp
   unit (CPU cycles for machine spans), scaled by [ts_scale] so callers
   can map cycles to microseconds (1/MHz) when they want
   wall-clock-looking traces. *)
let chrome_trace ?(ts_scale = 1.0) spans =
  let event (s : Span.completed) =
    let stamp v = Json.Float (float_of_int v *. ts_scale) in
    let start = stamp s.Span.sp_start in
    Json.Obj
      ([ ("name", Json.String s.Span.sp_name); ("cat", Json.String "palladium") ]
      @ (if s.Span.sp_instant then
           [ ("ph", Json.String "i"); ("s", Json.String "t"); ("ts", start) ]
         else
           [
             ("ph", Json.String "X");
             ("ts", start);
             ("dur", stamp (s.Span.sp_stop - s.Span.sp_start));
           ])
      @ [ ("pid", Json.Int 1); ("tid", Json.Int s.Span.sp_track) ]
      @
      match s.Span.sp_args with
      | [] -> []
      | args ->
          [
            ( "args",
              Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args) );
          ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ns");
    ]

(* --- Prometheus text exposition --------------------------------------- *)

(* Prometheus metric names allow [a-zA-Z0-9_:]; our dotted counter and
   span names are mapped with '.' and any other byte -> '_'. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* HELP text: the spec escapes backslash and newline.  Label values
   additionally escape the double quote. *)
let escape ~quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help = escape ~quote:false

let escape_label_value = escape ~quote:true

let prometheus ?(prefix = "palladium_") () =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun c ->
      let name = prefix ^ sanitize (Counters.name c) in
      let kind =
        match Counters.kind c with
        | Counters.Counter -> "counter"
        | Counters.Gauge -> "gauge"
      in
      let help =
        match Counters.help c with
        | Some h -> h
        | None -> Printf.sprintf "Palladium %s %s" kind (Counters.name c)
      in
      add "# HELP %s %s\n" name (escape_help help);
      add "# TYPE %s %s\n" name kind;
      add "%s %d\n" name (Counters.value c))
    (Counters.all ());
  List.iter
    (fun (hname, h) ->
      let name = prefix ^ sanitize hname in
      add "# HELP %s %s\n" name
        (escape_help
           (Printf.sprintf "Palladium latency histogram %s (log2 buckets)"
              hname));
      add "# TYPE %s histogram\n" name;
      List.iter
        (fun (le, cum) ->
          add "%s_bucket{le=\"%s\"} %d\n" name
            (escape_label_value (string_of_int le))
            cum)
        (Histogram.cumulative h);
      add "%s_bucket{le=\"+Inf\"} %d\n" name (Histogram.count h);
      add "%s_sum %d\n" name (Histogram.sum h);
      add "%s_count %d\n" name (Histogram.count h))
    (Histogram.all_named ());
  Buffer.contents buf

(* --- Folded stacks ----------------------------------------------------- *)

(* One line per distinct call path: "root;child;leaf <self-weight>",
   the input format of flamegraph.pl / inferno.  The weight of a span
   is its duration minus the duration of its direct children (its
   *self* time), clamped at zero when children post-hoc-recorded from
   marks overlap.  Instants carry no weight and are left out. *)
let folded spans =
  let spans = List.filter (fun (s : Span.completed) -> not s.sp_instant) spans in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : Span.completed) -> Hashtbl.replace by_id s.Span.sp_id s) spans;
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.completed) ->
      match s.Span.sp_parent with
      | Some p ->
          let prev = Option.value (Hashtbl.find_opt child_time p) ~default:0 in
          Hashtbl.replace child_time p
            (prev + (s.Span.sp_stop - s.Span.sp_start))
      | None -> ())
    spans;
  let rec path (s : Span.completed) =
    match s.Span.sp_parent with
    | Some p -> (
        match Hashtbl.find_opt by_id p with
        | Some parent -> path parent ^ ";" ^ s.Span.sp_name
        | None -> s.Span.sp_name)
    | None -> s.Span.sp_name
  in
  let weights = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (s : Span.completed) ->
      let self =
        s.Span.sp_stop - s.Span.sp_start
        - Option.value (Hashtbl.find_opt child_time s.Span.sp_id) ~default:0
      in
      let self = max 0 self in
      let key = path s in
      (match Hashtbl.find_opt weights key with
      | Some w -> Hashtbl.replace weights key (w + self)
      | None ->
          Hashtbl.add weights key self;
          order := key :: !order))
    spans;
  let buf = Buffer.create 512 in
  List.iter
    (fun key ->
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" key (Hashtbl.find weights key)))
    (List.sort compare !order);
  Buffer.contents buf

(* --- Per-span-name summary table --------------------------------------- *)

let pp_histograms ppf () =
  let hs = Histogram.all_named () in
  if hs = [] then Fmt.pf ppf "(no histograms recorded)@."
  else begin
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 10 hs
    in
    Fmt.pf ppf "%-*s  %8s %10s %8s %8s %8s %8s@." width "span" "count" "mean"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (n, h) ->
        let v p = match Histogram.percentile h p with Some x -> x | None -> 0 in
        Fmt.pf ppf "%-*s  %8d %10.1f %8d %8d %8d %8d@." width n
          (Histogram.count h)
          (match Histogram.mean h with Some m -> m | None -> 0.0)
          (v 50.0) (v 90.0) (v 99.0)
          (match Histogram.max_value h with Some m -> m | None -> 0))
      hs
  end
