(* Tier-1 check of the bench harness: drive the bench subcommands with
   tiny iteration counts, validate the BENCH_<name>.json artifact each
   one writes (it must parse, carry the schema tag, a counter snapshot
   and a coherent histogram), then pin its simulated columns.

   The simulator is deterministic, so each pin holds exact values: the
   reproduced cells of the paper's tables (Table 1's 144-cycle protected
   call, Figure 7's 2.30x at four terms, ...), identical under both
   engines and both hosting backends.  A pin lists only the fields it
   holds; host time (elapsed seconds, MIPS, speedups, verify_seconds),
   the host's core and domain counts, the engine name, paper constants
   and the counter blocks are left out.  When the cost model or a stub
   sequence changes on purpose, regenerate the smoke artifacts and
   update the pins with them. *)

module J = Obs.Json

let out_dir = "bench_json_out"

let fail fmt = Printf.ksprintf failwith fmt

let mem name j =
  match J.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let load name =
  let path = Filename.concat out_dir (Obs.Bench_json.file_name name) in
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match J.of_string s with
  | Ok doc -> doc
  | Error e -> fail "%s does not parse: %s" path e

let as_int name field j =
  match J.to_int j with
  | Some i -> i
  | None -> fail "%s: histogram %s is not an int" name field

let validate name =
  let doc = load name in
  (match J.to_str (mem "schema" doc) with
  | Some s when s = Obs.Bench_json.schema_version -> ()
  | Some s -> fail "%s: wrong schema %S" name s
  | None -> fail "%s: schema is not a string" name);
  (match J.to_str (mem "name" doc) with
  | Some n when n = name -> ()
  | _ -> fail "%s: name field mismatch" name);
  (match J.keys (mem "counters" doc) with
  | [] -> fail "%s: empty counter snapshot" name
  | _ -> ());
  ignore (mem "counters_delta" doc);
  (* every artifact carries a latency distribution of its primary
     metric with coherent percentiles *)
  let h = mem "histogram" doc in
  (match J.to_str (mem "metric" h) with
  | Some "" | None -> fail "%s: histogram metric missing" name
  | Some _ -> ());
  let count = as_int name "count" (mem "count" h) in
  if count < 1 then fail "%s: empty histogram" name;
  let p50 = as_int name "p50" (mem "p50" h) in
  let p90 = as_int name "p90" (mem "p90" h) in
  let p99 = as_int name "p99" (mem "p99" h) in
  let mx = as_int name "max" (mem "max" h) in
  if not (p50 <= p90 && p90 <= p99 && p99 <= mx) then
    fail "%s: percentiles not monotone (p50=%d p90=%d p99=%d max=%d)" name p50
      p90 p99 mx;
  ignore (mem "mean" h);
  (match mem "buckets" h with
  | J.List (_ :: _) -> ()
  | _ -> fail "%s: histogram buckets missing" name)

(* Every field of [expected] (a JSON object) must occur in the artifact
   with exactly that value; objects match field by field, lists element
   by element.  A mismatch names the cell, e.g. [table1.total.inter_cycles]. *)
let pin name expected =
  let rec sub path want got =
    match (want, got) with
    | J.Obj fields, _ ->
        List.iter
          (fun (k, w) ->
            let path = path ^ "." ^ k in
            match J.member k got with
            | Some g -> sub path w g
            | None -> fail "%s: missing" path)
          fields
    | J.List ws, J.List gs when List.length ws = List.length gs ->
        List.iteri
          (fun i (w, g) -> sub (Printf.sprintf "%s[%d]" path i) w g)
          (List.combine ws gs)
    | _ ->
        if want <> got then
          fail "%s = %s, pinned at %s" path (J.to_string got) (J.to_string want)
  in
  match J.of_string expected with
  | Ok want -> sub name want (load name)
  | Error e -> fail "%s: pin does not parse: %s" name e

let check name expected =
  validate name;
  pin name expected;
  Printf.printf "bench-smoke %-10s ok\n%!" name

(* A misspelt or removed subcommand stops the harness before anything
   runs: [bench/main.exe tabel1] exits 2 and writes no artifact. *)
let check_unknown_arg () =
  let dir = "bench_unknown_arg" in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  let status =
    Sys.command
      (Printf.sprintf "cd %s && ../../bench/main.exe tabel1 2>/dev/null" dir)
  in
  if status <> 2 then fail "bench/main.exe tabel1 exited %d, expected 2" status;
  if Sys.readdir dir <> [||] then fail "bench/main.exe tabel1 wrote an artifact";
  (match Bench_runs.unknown_arg [ "parallel"; "--domains"; "2"; "table1" ] with
  | None -> ()
  | Some a -> fail "bench rejects the valid argument %S" a);
  print_endline "bench-smoke unknown-arg ok"

let () =
  check_unknown_arg ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let json_dir = out_dir in
  let total = Bench_runs.table1 ~json_dir () in
  check "table1"
    {|{
      "components": [
        {"component": "setup", "inter_cycles": 26, "intra_cycles": 3,
         "hardware_cycles": 9},
        {"component": "calling", "inter_cycles": 36, "intra_cycles": 3,
         "hardware_cycles": 24},
        {"component": "returning", "inter_cycles": 75, "intra_cycles": 4,
         "hardware_cycles": 44},
        {"component": "restoring", "inter_cycles": 7, "intra_cycles": 5,
         "hardware_cycles": 4}
      ],
      "total": {"inter_cycles": 144, "intra_cycles": 15,
                "hardware_cycles": 81},
      "body_cycles": 9,
      "histogram": {"count": 16, "sum": 2304, "p50": 144, "max": 144}
    }|};
  Bench_runs.table2 ~json_dir ~runs:2 ();
  check "table2"
    {|{
      "runs": 2,
      "rows": [
        {
          "size_bytes": 32,
          "unprotected_usec": {"measured": 2.41, "stddev": 0.212132034356},
          "palladium_usec": {"measured": 3.23, "stddev": 0.353553390593},
          "rpc_usec": {"measured": 348.624}
        },
        {
          "size_bytes": 64,
          "unprotected_usec": {"measured": 4.42, "stddev": 0.0},
          "palladium_usec": {"measured": 5.14, "stddev": 0.0},
          "rpc_usec": {"measured": 359.248}
        },
        {
          "size_bytes": 128,
          "unprotected_usec": {"measured": 8.74, "stddev": 0.0},
          "palladium_usec": {"measured": 9.46, "stddev": 0.0},
          "rpc_usec": {"measured": 380.496}
        },
        {
          "size_bytes": 256,
          "unprotected_usec": {"measured": 17.38, "stddev": 0.0},
          "palladium_usec": {"measured": 18.1, "stddev": 0.0},
          "rpc_usec": {"measured": 422.992}
        }
      ],
      "histogram": {"count": 8, "sum": 14372, "p50": 1028, "max": 3620}
    }|};
  Bench_runs.table3 ~json_dir ~protected_call_usec:(Cycles.cycles_to_usec total)
    ();
  check "table3"
    {|{
      "protected_call_usec": 0.72,
      "rows": [
        {
          "size_label": "28 Bytes", "size_bytes": 28,
          "cgi_rps": {"measured": 97.9988417007},
          "fastcgi_rps": {"measured": 193.167203151},
          "libcgi_protected_rps": {"measured": 438.303858042},
          "libcgi_rps": {"measured": 448.269228921},
          "webserver_rps": {"measured": 460.235166179}
        },
        {
          "size_label": "1 KBytes", "size_bytes": 1024,
          "cgi_rps": {"measured": 96.5839985936},
          "fastcgi_rps": {"measured": 184.469106177},
          "libcgi_protected_rps": {"measured": 419.955985925},
          "libcgi_rps": {"measured": 429.095798349},
          "webserver_rps": {"measured": 440.047505416}
        },
        {
          "size_label": "10 KBytes", "size_bytes": 10240,
          "cgi_rps": {"measured": 85.2019599995},
          "fastcgi_rps": {"measured": 130.214789817},
          "libcgi_protected_rps": {"measured": 302.705655801},
          "libcgi_rps": {"measured": 307.42563251},
          "webserver_rps": {"measured": 313.006757941}
        },
        {
          "size_label": "100 KBytes", "size_bytes": 102400,
          "cgi_rps": {"measured": 32.0510848138},
          "fastcgi_rps": {"measured": 42.687845302},
          "libcgi_protected_rps": {"measured": 55.0693786059},
          "libcgi_rps": {"measured": 55.223624755},
          "webserver_rps": {"measured": 55.4010727421}
        }
      ],
      "histogram": {"count": 4000, "sum": 772396318, "p50": 71434,
                    "max": 552714}
    }|};
  Bench_runs.figure7 ~json_dir ();
  check "figure7"
    {|{
      "rows": [
        {"terms": 0, "bpf_cycles": 57, "palladium_cycles": 224,
         "ratio": 0.254464285714},
        {"terms": 1, "bpf_cycles": 109, "palladium_cycles": 232,
         "ratio": 0.469827586207},
        {"terms": 2, "bpf_cycles": 213, "palladium_cycles": 236,
         "ratio": 0.902542372881},
        {"terms": 3, "bpf_cycles": 331, "palladium_cycles": 252,
         "ratio": 1.31349206349},
        {"terms": 4, "bpf_cycles": 607, "palladium_cycles": 264,
         "ratio": 2.29924242424}
      ],
      "histogram": {"count": 40, "sum": 10536, "p50": 213, "max": 607}
    }|};
  Bench_runs.micro ~json_dir ();
  check "micro"
    {|{
      "dlopen_usec": {"measured": 400.0},
      "seg_dlopen_usec": {"measured": 422.95},
      "ppl_mark_10_pages_cycles": {"measured": 4364},
      "sigsegv_delivery_cycles": {"measured": 3095},
      "kernel_gp_call_cycles": 1310, "mov_sreg_cycles": {"measured": 12},
      "histogram": {"count": 8, "sum": 27268, "p50": 3396, "max": 3496}
    }|};
  Bench_runs.ipc_cmp ~json_dir ~palladium_cycles:total ();
  check "ipc"
    {|{
      "mechanisms": [
        {"mechanism": "palladium", "cost_cycles": 144, "cost_usec": 0.72,
         "domain_crossings": 2},
        {"mechanism": "l4", "cost_cycles": 242, "cost_usec": 1.4578313253,
         "domain_crossings": 4},
        {"mechanism": "lrpc", "cost_cycles": null, "cost_usec": 125.0,
         "domain_crossings": 4},
        {"mechanism": "linux_rpc_32b", "cost_cycles": null,
         "cost_usec": 348.624, "domain_crossings": 4}
      ],
      "histogram": {"count": 16, "sum": 2576, "p50": 161, "max": 161}
    }|};
  Bench_runs.ablation ~json_dir ~sizes:[ 32 ] ();
  check "ablation"
    {|{
      "rows": [
        {"strrev_bytes": 32, "native_cycles": 452, "sfi_write_cycles": 692,
         "sfi_rw_cycles": 1196, "write_overhead": 0.530973451327,
         "rw_overhead": 1.64601769912}
      ],
      "histogram": {"count": 1, "sum": 452, "p50": 452, "max": 452}
    }|};
  Bench_runs.sfi ~json_dir ~packets:12 ();
  check "sfi"
    {|{
      "guards": {"sfi_full": 55, "sfi_verified": 0},
      "cycles_per_packet": {"native": 45.8333333333,
                            "sfi_full": 97.8333333333, "sfi_verified": 42.5,
                            "palladium": 254.166666667},
      "packets": 12, "matched": 3,
      "histogram": {"count": 12, "sum": 1174, "p50": 60, "max": 184}
    }|};
  Bench_runs.backends ~json_dir ~packets:8 ~calls:5 ~requests:60 ();
  check "backends"
    {|{
      "backends": [
        {
          "backend": "seg", "transfer_cycles": 161.0, "strrev": "sdnekcab",
          "filter_cycles_per_packet": 191.0, "filter_matches": 2,
          "webserver_rps": 419.714787014, "webserver_requests": 60,
          "fault_contained": true, "fault_class": "page-privilege",
          "guard_instructions": 0,
          "tlb": {"hits": 1170, "misses": 23, "flushes": 2},
          "audit": {"ok": true, "findings": 0, "invariants_checked": 24}
        },
        {
          "backend": "mpk", "transfer_cycles": 88.0, "strrev": "sdnekcab",
          "filter_cycles_per_packet": 125.5, "filter_matches": 2,
          "webserver_rps": 419.779095449, "webserver_requests": 60,
          "fault_contained": true, "fault_class": "page-key",
          "guard_instructions": 0,
          "tlb": {"hits": 1084, "misses": 96, "flushes": 18},
          "audit": {"ok": true, "findings": 0, "invariants_checked": 24}
        },
        {
          "backend": "sfi-full", "transfer_cycles": 17.0,
          "strrev": "sdnekcab", "filter_cycles_per_packet": 100.5,
          "filter_matches": 2, "webserver_rps": 419.841660916,
          "webserver_requests": 60, "fault_contained": true,
          "fault_class": "sfi-masked", "guard_instructions": 55,
          "tlb": {"hits": 1120, "misses": 8, "flushes": 1},
          "audit": {"ok": true, "findings": 0, "invariants_checked": 24}
        },
        {
          "backend": "sfi-verified", "transfer_cycles": 17.0,
          "strrev": "sdnekcab", "filter_cycles_per_packet": 44.5,
          "filter_matches": 2, "webserver_rps": 419.841660916,
          "webserver_requests": 60, "fault_contained": true,
          "fault_class": "sfi-masked", "guard_instructions": 0,
          "tlb": {"hits": 714, "misses": 8, "flushes": 1},
          "audit": {"ok": true, "findings": 0, "invariants_checked": 24}
        }
      ],
      "agreement": true, "mpk_cheaper_than_seg": true,
      "workloads": ["null-call", "strrev", "filter", "webserver",
                    "fault-injection"],
      "packets": 8, "calls": 5, "requests": 60,
      "histogram": {"count": 20, "sum": 1415, "p50": 17, "max": 161}
    }|};
  ignore (Bench_runs.soundness ~json_dir ~specimens:30 ());
  check "verify"
    {|{
      "seed": 41245, "specimens": 30, "fuel": 2000,
      "soundness": {
        "specimens": 30, "skipped_flow_errors": 0, "engine_runs": 60,
        "diverged": 0, "cost_bounded_runs": 32, "violations": 0,
        "artifacts": [], "instructions": 664,
        "accesses": {"total": 97, "proved": 26, "stack_relative": 13,
                     "runtime": 43, "oob": 15},
        "elidable_instructions": 39, "proved_pct": 26.8041237113
      }
    }|};
  (* the fleet runner: a parallel sweep (4 domains requested, at most
     one per core used) must reproduce the serial per-world results
     bit-for-bit, and the merged histogram must account for every
     request.  Its speedup floor is a host-time gate of [bench
     parallel], not a test. *)
  ignore (Bench_runs.parallel ~json_dir ~domains:4 ());
  check "parallel"
    {|{
      "domains_requested": 4, "worlds": 4, "serial": {"requests": 80192},
      "parallel": {"requests": 80192}, "deterministic": true,
      "merged_request_count": 80192,
      "per_world": [
        {"world": 0, "calls": 2000, "requests": 20000},
        {"world": 1, "calls": 2001, "requests": 20032},
        {"world": 2, "calls": 2002, "requests": 20064},
        {"world": 3, "calls": 2000, "requests": 20096}
      ],
      "histogram": {"count": 80192, "sum": 3185327728, "p50": 39736,
                    "max": 39900}
    }|};
  (match J.to_int (mem "domains" (load "parallel")) with
  | Some used when used = min 4 (Domain.recommended_domain_count ()) -> ()
  | _ -> fail "parallel: artifact does not record the domain clamp");
  (* the block engine reproduces the interpreter's architectural totals
     on the compute-heavy protected call.  Its 3x speedup floor is a
     host-time gate of [bench fastpath], not a test. *)
  ignore (Bench_runs.fastpath ~json_dir ~calls:30 ());
  check "fastpath"
    {|{
      "rows": [
        {
          "workload": "protected-call",
          "interp": {"cycles": 2339430, "instructions": 983880},
          "blocks": {"cycles": 2339430, "instructions": 983880},
          "identical": true
        }
      ],
      "histogram": {"count": 30, "sum": 2339430, "p50": 77981, "max": 77981}
    }|};
  print_endline "bench-smoke: all subcommands emitted valid, pinned artifacts"
