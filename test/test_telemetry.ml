(* Tests for the live-telemetry layer: the bounded Timeseries ring and
   its sample-exact merge, the Collector's boundary sampling (deltas,
   catch-up, empty intervals, partial-interval flush), the coordinator
   views (merged_series / merged_sink), the HTTP exposition server,
   Prometheus HELP/TYPE/escaping, Counters.pp determinism and the
   Sink.merge trace policy (the bounded span ring). *)

module S = Obs.Sink
module C = Obs.Counters
module H = Obs.Histogram
module T = Obs.Timeseries
module Co = Obs.Collector

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_str = Alcotest.(check string)

let gauge_points ts name =
  List.map
    (fun p ->
      match p.T.p_v with
      | T.Gauge v -> (p.T.p_t, v)
      | _ -> Alcotest.fail "expected gauge point")
    (T.points ts name)

let counter_points ts name =
  List.map
    (fun p ->
      match p.T.p_v with
      | T.Counter { delta; total } -> (p.T.p_t, delta, total)
      | _ -> Alcotest.fail "expected counter point")
    (T.points ts name)

let hist_counts ts name =
  List.map
    (fun p ->
      match p.T.p_v with
      | T.Hist h -> (p.T.p_t, H.count h)
      | _ -> Alcotest.fail "expected histogram point")
    (T.points ts name)

(* --- Timeseries ring --------------------------------------------------- *)

let test_ring_wrap () =
  let ts = T.create ~capacity:4 () in
  for i = 1 to 6 do
    T.append ts ~name:"g" ~at:(i * 10) (T.Gauge i)
  done;
  check_int "length capped" 4 (T.length ts "g");
  check_int "dropped counted" 2 (T.dropped ts "g");
  Alcotest.(check (list (pair int int)))
    "oldest overwritten, oldest-first order"
    [ (30, 3); (40, 4); (50, 5); (60, 6) ]
    (gauge_points ts "g");
  Alcotest.(check (list (pair int int)))
    "points_since returns the unflushed tail"
    [ (50, 5); (60, 6) ]
    (List.map
       (fun p ->
         match p.T.p_v with T.Gauge v -> (p.T.p_t, v) | _ -> assert false)
       (T.points_since ts "g" ~after:40));
  (match T.last ts "g" with
  | Some { T.p_t = 60; p_v = T.Gauge 6 } -> ()
  | _ -> Alcotest.fail "last point wrong");
  check_int "unknown series is empty" 0 (T.length ts "nope")

let test_merge_aligned () =
  let a = T.create () and b = T.create () in
  T.append a ~name:"c" ~at:10 (T.Counter { delta = 3; total = 3 });
  T.append b ~name:"c" ~at:10 (T.Counter { delta = 4; total = 4 });
  T.append a ~name:"g" ~at:10 (T.Gauge 5);
  T.append b ~name:"g" ~at:10 (T.Gauge 6);
  let ha = H.create () and hb = H.create () in
  H.observe ha 100;
  H.observe hb 200;
  T.append a ~name:"h" ~at:10 (T.Hist ha);
  T.append b ~name:"h" ~at:10 (T.Hist hb);
  let m = T.create () in
  T.merge ~into:m a;
  T.merge ~into:m b;
  Alcotest.(check (list (triple int int int)))
    "counter deltas and totals sum at equal stamps"
    [ (10, 7, 7) ]
    (counter_points m "c");
  Alcotest.(check (list (pair int int))) "gauges sum" [ (10, 11) ]
    (gauge_points m "g");
  (match T.points m "h" with
  | [ { T.p_v = T.Hist h; _ } ] ->
      check_int "interval histograms merge" 2 (H.count h);
      check_int "histogram sum" 300 (H.sum h)
  | _ -> Alcotest.fail "merged histogram point missing")

let test_merge_carry_forward () =
  (* worlds sampling on different boundaries: the merged running total
     must stay cumulative by carrying the other side's last total *)
  let a = T.create () and b = T.create () in
  T.append a ~name:"c" ~at:10 (T.Counter { delta = 5; total = 5 });
  T.append a ~name:"c" ~at:30 (T.Counter { delta = 1; total = 6 });
  T.append b ~name:"c" ~at:20 (T.Counter { delta = 7; total = 7 });
  let m = T.create () in
  T.merge ~into:m a;
  T.merge ~into:m b;
  Alcotest.(check (list (triple int int int)))
    "one-sided stamps carry the other side's total"
    [ (10, 5, 5); (20, 7, 12); (30, 1, 13) ]
    (counter_points m "c")

let test_merge_no_alias () =
  let a = T.create () in
  let h = H.create () in
  H.observe h 1;
  T.append a ~name:"h" ~at:5 (T.Hist h);
  let m = T.create () in
  T.merge ~into:m a;
  H.observe h 2 (* mutate the source after the merge *);
  (match T.points m "h" with
  | [ { T.p_v = T.Hist mh; _ } ] ->
      check_int "merged histogram is a copy, not an alias" 1 (H.count mh)
  | _ -> Alcotest.fail "merged histogram point missing");
  Alcotest.check_raises "self-merge rejected"
    (Invalid_argument "Timeseries.merge: cannot merge a series set into itself")
    (fun () -> T.merge ~into:m m)

(* --- Collector sampling ------------------------------------------------ *)

let test_collector_deltas_and_catchup () =
  let sink = S.create ~label:"co" () in
  let co = Co.create ~every:100 () in
  S.with_sink sink (fun () ->
      let c = C.counter "test.tel.c" in
      C.add c 5;
      Co.tick co ~now:100;
      C.add c 3;
      (* jumping three boundaries at once: the first catch-up boundary
         absorbs the delta, the later one is an explicit zero *)
      Co.tick co ~now:350);
  check_int "boundaries sampled" 3 (Co.samples co);
  Alcotest.(check (list (triple int int int)))
    "deltas, totals and explicit zero points"
    [ (100, 5, 5); (200, 3, 8); (300, 0, 8) ]
    (counter_points (Co.series co) "test.tel.c")

let test_collector_inactive_until_nonzero () =
  let sink = S.create () in
  let co = Co.create ~every:10 () in
  ignore (S.register ~kind:S.Counter "test.tel.idle");
  S.with_sink sink (fun () -> Co.tick co ~now:10);
  check_bool "zero-valued metric stays out of the series" false
    (List.mem "test.tel.idle" (T.names (Co.series co)))

let test_collector_empty_interval_hist () =
  let sink = S.create () in
  let co = Co.create ~every:10 () in
  S.with_sink sink (fun () ->
      let h = H.get_or_create "test.tel.h" in
      H.observe h 42;
      Co.tick co ~now:10;
      (* no observations in the second interval *)
      Co.tick co ~now:20;
      H.observe h 7;
      Co.tick co ~now:30);
  Alcotest.(check (list (pair int int)))
    "empty intervals appear as count-0 histogram points"
    [ (10, 1); (20, 0); (30, 1) ]
    (hist_counts (Co.series co) "test.tel.h")

let test_collector_flush_partial () =
  let sink = S.create () in
  let co = Co.create ~every:100 () in
  S.with_sink sink (fun () ->
      let c = C.counter "test.tel.f" in
      C.add c 4;
      Co.tick co ~now:100;
      C.add c 2;
      Co.flush co ~now:150);
  Alcotest.(check (list (triple int int int)))
    "flush captures the partial tail interval"
    [ (100, 4, 4); (150, 2, 6) ]
    (counter_points (Co.series co) "test.tel.f")

let test_collector_gauge_last_value () =
  let sink = S.create () in
  let co = Co.create ~every:10 () in
  S.with_sink sink (fun () ->
      let g = C.gauge "test.tel.g" in
      C.set g 7;
      Co.tick co ~now:10;
      C.set g 3;
      Co.tick co ~now:20);
  Alcotest.(check (list (pair int int)))
    "gauges sample last value, not deltas"
    [ (10, 7); (20, 3) ]
    (gauge_points (Co.series co) "test.tel.g")

let test_collector_merged_views () =
  let mk add_n obs =
    let sink = S.create () in
    let co = Co.create ~every:10 () in
    S.with_sink sink (fun () ->
        let c = C.counter "test.tel.m" in
        C.add c add_n;
        let h = H.get_or_create "test.tel.mh" in
        H.observe h obs;
        Co.tick co ~now:10);
    co
  in
  let c1 = mk 3 100 and c2 = mk 5 200 in
  let merged = Co.merged_series [ c1; c2 ] in
  Alcotest.(check (list (triple int int int)))
    "merged series sums per-world samples"
    [ (10, 8, 8) ]
    (counter_points merged "test.tel.m");
  let live = Co.merged_sink [ c1; c2 ] in
  check_int "merged live sink holds fleet totals" 8
    (S.counter_value live "test.tel.m");
  (match S.find_histogram live "test.tel.mh" with
  | Some h ->
      check_int "merged live sink replays histogram samples" 2 (H.count h);
      check_int "merged histogram sum" 300 (H.sum h)
  | None -> Alcotest.fail "merged live sink histogram missing")

(* --- HTTP exposition server -------------------------------------------- *)

(* connect, write the raw [request], let the server [poll], then read
   the whole response (Connection: close => read to EOF) *)
let roundtrip srv request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET
           (Unix.inet_addr_of_string "127.0.0.1", Obs.Serve.port srv));
      ignore (Unix.write_substring fd request 0 (String.length request));
      let served = Obs.Serve.poll srv in
      check_int "poll answered the pending connection" 1 served;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let index_of hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then -1
    else if String.sub hay i nl = needle then i
    else go (i + 1)
  in
  go 0

let contains ~needle hay = index_of hay needle >= 0

let test_serve_loopback () =
  let srv =
    Obs.Serve.create ~port:0 (fun path ->
        if path = "/metrics" then Some ("text/plain", "metric_body 1\n")
        else None)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Serve.close srv)
    (fun () ->
      check_bool "ephemeral port bound" true (Obs.Serve.port srv > 0);
      check_int "idle poll serves nothing" 0 (Obs.Serve.poll srv);
      let ok = roundtrip srv "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
      check_bool "200 status" true (contains ~needle:"HTTP/1.1 200" ok);
      check_bool "body served" true (contains ~needle:"metric_body 1" ok);
      check_bool "connection closed" true
        (contains ~needle:"Connection: close" ok);
      let qs = roundtrip srv "GET /metrics?x=1 HTTP/1.1\r\n\r\n" in
      check_bool "query string stripped" true
        (contains ~needle:"HTTP/1.1 200" qs);
      let missing = roundtrip srv "GET /nope HTTP/1.1\r\n\r\n" in
      check_bool "404 for unknown path" true
        (contains ~needle:"HTTP/1.1 404" missing);
      let post = roundtrip srv "POST /metrics HTTP/1.1\r\n\r\n" in
      check_bool "405 for non-GET" true
        (contains ~needle:"HTTP/1.1 405" post);
      let garbage = roundtrip srv "whatever\r\n" in
      check_bool "400 for garbage" true
        (contains ~needle:"HTTP/1.1 400" garbage);
      check_int "every request counted" 5 (Obs.Serve.served srv));
  check_int "poll after close serves nothing" 0 (Obs.Serve.poll srv)

(* --- Prometheus exposition --------------------------------------------- *)

let test_prometheus_help_type () =
  let sink = S.create () in
  S.with_sink sink (fun () ->
      let c = C.counter ~help:"lines\nand \\slashes" "test.exp.helped" in
      C.add c 2;
      let h = H.get_or_create "test.exp.lat" in
      H.observe h 5;
      let out = Obs.Export.prometheus () in
      check_bool "HELP line with escaped newline and backslash" true
        (contains
           ~needle:
             "# HELP palladium_test_exp_helped lines\\nand \\\\slashes"
           out);
      check_bool "TYPE counter" true
        (contains ~needle:"# TYPE palladium_test_exp_helped counter" out);
      check_bool "counter value line" true
        (contains ~needle:"palladium_test_exp_helped 2" out);
      check_bool "derived HELP for histograms" true
        (contains ~needle:"# HELP palladium_test_exp_lat " out);
      check_bool "TYPE histogram" true
        (contains ~needle:"# TYPE palladium_test_exp_lat histogram" out);
      check_bool "+Inf bucket" true
        (contains ~needle:"le=\"+Inf\"" out))

let test_escape_label_value () =
  check_str "backslash, quote and newline escaped"
    "a\\\\b\\\"c\\nd"
    (Obs.Export.escape_label_value "a\\b\"c\nd")

(* --- Counters.pp grouping ---------------------------------------------- *)

let test_counters_pp_deterministic () =
  let sink = S.create () in
  S.with_sink sink (fun () ->
      (* registration order deliberately scrambled across two groups *)
      C.add (C.counter "tppz.second") 1;
      C.add (C.counter "tppa.third") 2;
      C.add (C.counter "tppz.first") 3;
      C.add (C.counter "tppa.other") 4;
      let once = Fmt.str "%a" C.pp () in
      let twice = Fmt.str "%a" C.pp () in
      check_str "pp output stable across calls" once twice;
      let idx needle = index_of once needle in
      let a3 = idx "tppa.third"
      and ao = idx "tppa.other"
      and z1 = idx "tppz.first"
      and z2 = idx "tppz.second" in
      check_bool "all four counters printed" true
        (a3 >= 0 && ao >= 0 && z1 >= 0 && z2 >= 0);
      check_bool "groups sorted (tppa before tppz)" true (a3 < z1 && a3 < z2);
      check_bool "members sorted within a group" true (ao < a3 && z1 < z2))

(* --- Sink.merge trace policy ------------------------------------------- *)

(* The destination ring is bounded: merging more entries than it holds
   keeps the newest, so the last sink merged wins, and every entry lost
   on the way (in the source or in the merge) counts as dropped. *)
let test_sink_merge_traces_drop () =
  let sink ~capacity names =
    let sk = S.create () in
    S.with_sink sk (fun () ->
        Obs.Span.set_capacity capacity;
        Obs.Span.set_enabled true;
        List.iter (fun n -> Obs.Span.instant n ~at:0) names);
    sk
  in
  let m = sink ~capacity:3 [] in
  S.merge ~into:m (sink ~capacity:2 [ "a1"; "a2" ]);
  S.merge ~into:m (sink ~capacity:2 [ "b1"; "b2"; "b3" ]);
  S.with_sink m (fun () ->
      check_bool "the last sink's newest entries win" true
        (List.map (fun e -> e.Obs.Span.sp_name) (Obs.Span.entries ())
        = [ "a2"; "b2"; "b3" ]);
      check_int "drops carried and counted" 2 (Obs.Span.dropped ()))

let () =
  Alcotest.run "telemetry"
    [
      ( "timeseries",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "merge aligned stamps" `Quick test_merge_aligned;
          Alcotest.test_case "merge carries totals" `Quick
            test_merge_carry_forward;
          Alcotest.test_case "merge copies histograms" `Quick
            test_merge_no_alias;
        ] );
      ( "collector",
        [
          Alcotest.test_case "deltas and catch-up" `Quick
            test_collector_deltas_and_catchup;
          Alcotest.test_case "inactive until nonzero" `Quick
            test_collector_inactive_until_nonzero;
          Alcotest.test_case "empty-interval histograms" `Quick
            test_collector_empty_interval_hist;
          Alcotest.test_case "flush partial interval" `Quick
            test_collector_flush_partial;
          Alcotest.test_case "gauge last value" `Quick
            test_collector_gauge_last_value;
          Alcotest.test_case "merged coordinator views" `Quick
            test_collector_merged_views;
        ] );
      ("serve", [ Alcotest.test_case "loopback" `Quick test_serve_loopback ]);
      ( "export",
        [
          Alcotest.test_case "prometheus help and type" `Quick
            test_prometheus_help_type;
          Alcotest.test_case "label escaping" `Quick test_escape_label_value;
        ] );
      ( "counters",
        [
          Alcotest.test_case "pp deterministic" `Quick
            test_counters_pp_deterministic;
        ] );
      ( "sink",
        [
          Alcotest.test_case "merge trace policy" `Quick
            test_sink_merge_traces_drop;
        ] );
    ]
