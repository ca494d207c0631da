(* The repository benchmark.

     suite [run] [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                 [--out DIR] [--commit C] [--smoke]
     suite compare OLD_DIR NEW_DIR [--benchmark FILE]
     suite smoke [--benchmark FILE]

   [run] sets one workload up [setups] times (boot, load, warm-up) and
   reports the median set-up time, then runs fixed-size timed repeats
   until [--seconds] is spent and reports medians over them.  Without
   [--workload] it runs every workload, each in a child process of its
   own so peak RSS is per workload.  It prints one
   "workload metric value unit" line per metric, writes
   SUITE_<workload>.json into [--out], and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.

   The untraced run gives the end-to-end metrics.  The traced run
   ([--trace 1]) gives the per-layer metrics: it spends half its time
   untraced and half with bench-side spans around every layer call,
   takes the metrics tied to the workload from those spans, runs a
   smoke-size traced pass of each other workload for the metrics tied
   to it, then runs the layer ledger, and writes
   SUITE_layers_<workload>.json and SUITE_trace_<workload>.json. *)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  commit : string option;
  smoke : bool;
}

let default_opts =
  {
    workload = None;
    seed = 1;
    seconds = 10.;
    trace = false;
    out = "bench_json_out";
    commit = None;
    smoke = false;
  }

let min_repeats = 3

let usage () =
  prerr_endline
    "usage: suite [run] [--workload W] [--seed S] [--seconds N] [--trace 0|1]\n\
    \             [--out DIR] [--commit C] [--smoke]\n\
    \       suite compare OLD_DIR NEW_DIR [--benchmark FILE]\n\
    \       suite smoke [--benchmark FILE]";
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some n -> n
  | None ->
      Printf.eprintf "suite: %s expects an integer, got %S\n" name v;
      exit 2

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = Some w } rest
  | "--seed" :: s :: rest -> parse { o with seed = int_arg "--seed" s } rest
  | "--seconds" :: s :: rest ->
      parse { o with seconds = float_of_int (int_arg "--seconds" s) } rest
  | "--trace" :: t :: rest -> parse { o with trace = int_arg "--trace" t <> 0 } rest
  | "--out" :: d :: rest -> parse { o with out = d } rest
  | "--commit" :: c :: rest -> parse { o with commit = Some c } rest
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | a :: _ ->
      Printf.eprintf "suite: unexpected argument %S\n" a;
      usage ()

(* --- What is measured -------------------------------------------------- *)

(* Environment variables (PALLADIUM_ENGINE, PALLADIUM_BACKEND and the
   policy variables) would otherwise change what is measured; the
   workloads also pass every policy to [Palladium.boot] explicitly. *)
let pin () =
  Bexec.set_default_engine Cpu.Blocks;
  Pconfig.set_verify_policy Verify.Warn;
  Pconfig.set_audit_policy Audit.Engine.Warn;
  Pconfig.set_budget_policy Vcost.Off;
  Pbackend.set_default Pbackend.Segmentation;
  if Obs.Span.on () then failwith "suite: in-program spans must stay off"

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let setups o = if o.smoke then 2 else 5

let stamp o ~repeats =
  let open Obs.Json in
  let os_release =
    try String.trim (read_file "/proc/sys/kernel/osrelease") with Sys_error _ -> "unknown"
  in
  Obj
    [
      ("os_release", String os_release);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", String Sys.ocaml_version);
      ("engine", String (Bexec.engine_to_string (Bexec.get_default_engine ())));
      ("seed", Int o.seed);
      ("seconds", Float o.seconds);
      ("repeats", Int repeats);
      ("setups", Int (setups o));
      ("smoke", Bool o.smoke);
      ("commit", match o.commit with Some c -> String c | None -> Null);
    ]

(* --- Runs ------------------------------------------------------------ *)

let metric = Metric.make

(* Set up [setups o] times; keep the last instance.  Returns the
   set-up seconds of each and the instance.  Each set-up starts from a
   collected heap, with the previous instance already dropped. *)
let set_up o (w : Workloads.t) =
  let cfg = { Workloads.seed = o.seed; smoke = o.smoke } in
  let times = ref [] and inst = ref None in
  for _ = 1 to setups o do
    inst := None;
    Gc.full_major ();
    let t0 = Tracer.now_ns () in
    let i = w.Workloads.setup cfg in
    times := (float_of_int (Tracer.now_ns () - t0) /. 1e9) :: !times;
    inst := Some i
  done;
  (List.rev !times, Option.get !inst)

(* Timed repeats until [budget] seconds are spent (at least
   [min_repeats]; exactly that many in a smoke run). *)
let repeats o ~budget run tr =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    let acc = run tr :: acc in
    let n = n + 1 in
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min_repeats
       && (o.smoke || elapsed +. (elapsed /. float_of_int n) > budget)
    then List.rev acc
    else go acc n
  in
  go [] 0

let throughput (s : Workloads.sample) = float_of_int s.ops /. s.wall_s

let total_ops samples =
  List.fold_left (fun a (s : Workloads.sample) -> a + s.ops) 0 samples

let per_op f (samples : Workloads.sample list) =
  List.map (fun (s : Workloads.sample) -> f s /. float_of_int (max 1 s.ops)) samples

let end_to_end ~setup_times ~rss (samples : Workloads.sample list) =
  [
    metric ~stat:Metric.Max "ops_per_s" "op/s" (List.map throughput samples);
    metric ~stat:Metric.Min "op_p50_us" "us"
      (List.map (fun (s : Workloads.sample) -> s.p50_ns /. 1e3) samples);
    metric "sim_cycles_per_op" "cycles" (per_op (fun s -> float_of_int s.cycles) samples);
    metric "alloc_words_per_op" "words" (per_op (fun s -> s.alloc_words) samples);
    metric "peak_rss_mb" "MiB" [ rss ];
    metric "setup_s" "s" setup_times;
  ]

let counter (s : Workloads.sample) name =
  float_of_int (Option.value (List.assoc_opt name s.counters) ~default:0)

let ratio a b = if b = 0. then nan else a /. b

(* Per-layer metrics the workload's own repeats give: event counts per
   op at the layer boundaries, GC activity, and the span attribution of
   the traced repeats. *)
let workload_layers ~untraced ~traced (tr : Tracer.t) =
  let c = counter in
  let per name = per_op (fun s -> c s name) untraced in
  let hit_ratio hit miss =
    List.map (fun s -> ratio (c s hit) (c s hit +. c s miss)) untraced
  in
  let ops_per_s l = List.fold_left (fun a s -> Float.max a (throughput s)) 0. l in
  [
    metric "machine.instructions_per_op" "count" (per "machine.instructions");
    metric "machine.sim_mips" "MIPS"
      (List.map
         (fun (s : Workloads.sample) -> c s "machine.instructions" /. s.wall_s /. 1e6)
         untraced);
    metric "machine.bcache.hit_ratio" "ratio" (hit_ratio "bcache.hit" "bcache.miss");
    metric "machine.gate_transits_per_op" "count" (per "machine.gate_transits");
    metric "machine.sreg_loads_per_op" "count" (per "machine.sreg_loads");
    metric "x86.tlb.hit_ratio" "ratio" (hit_ratio "x86.tlb.hits" "x86.tlb.misses");
    metric "x86.phys.accesses_per_op" "count"
      (per_op (fun s -> c s "x86.phys.reads" +. c s "x86.phys.writes") untraced);
    metric "x86.mmu.page_walks_per_op" "count" (per "x86.mmu.page_walks");
    metric "x86.seg.descriptor_loads_per_op" "count" (per "x86.seg.descriptor_loads");
    metric "machine.bcache.translates_per_op" "count" (per "bcache.translate");
    metric "kern.syscalls_per_op" "count" (per "kern.syscalls");
    metric "audit.runs_per_op" "count"
      (per_op (fun s -> c s "audit.pass" +. c s "audit.warn" +. c s "audit.reject") untraced);
    metric "gc.minor_collections_per_kop" "count"
      (per_op (fun s -> 1000. *. float_of_int s.minor_gcs) untraced);
    metric "gc.major_collections_per_kop" "count"
      (per_op (fun s -> 1000. *. float_of_int s.major_gcs) untraced);
    metric "gc.promoted_words_per_op" "words" (per_op (fun s -> s.promoted_words) untraced);
    metric "gc.op_p99_us" "us"
      (List.map (fun (s : Workloads.sample) -> s.p99_ns /. 1e3) untraced);
    metric "obs.trace_overhead" "ratio" [ ops_per_s traced /. ops_per_s untraced ];
    metric "bench.unattributed_frac" "ratio" [ Tracer.unattributed_frac tr ];
    metric "core.self_us_per_op" "us"
      [
        float_of_int (List.assoc "core" (Tracer.layer_self tr))
        /. 1e3 /. float_of_int (max 1 (total_ops traced));
      ];
  ]

let fmt_float v = Printf.sprintf "%.17g" v

let metric_json m =
  let open Obs.Json in
  let q1, med, q3 = Quantiles.quartiles m.Metric.raw in
  ( m.Metric.name,
    Obj
      [
        ("unit", String m.Metric.unit);
        ("value", Float (Metric.value m));
        ("stat", String (Metric.stat_name m.Metric.stat));
        ("median", Float med);
        ("q1", Float q1);
        ("q3", Float q3);
        ("raw", List (List.map (fun v -> Float v) m.Metric.raw));
      ] )

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_json o name json =
  mkdir_p o.out;
  let path = Filename.concat o.out name in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.Json.pretty json));
  path

(* Final line: the machine-readable summary of the run.  Values are
   printed with all their digits. *)
let print_result ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i m ->
      let v = Metric.value m in
      Printf.bprintf buf "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        m.Metric.name
        (if Float.is_finite v then fmt_float v else "null")
        m.Metric.unit)
    metrics;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* Every traced run reports every per-layer metric, but some are tied
   to one workload.  Those of the other workloads come from a
   smoke-size traced pass of each: its own code, a small sample. *)
let side_passes o (w : Workloads.t) =
  List.filter_map
    (fun (x : Workloads.t) ->
      if x.name = w.name then None
      else
        let inst = x.setup { Workloads.seed = o.seed; smoke = true } in
        let tr = Tracer.create ~on:true in
        let samples = List.init min_repeats (fun _ -> inst.repeat tr) in
        Some (samples, inst.layers tr))
    Workloads.all

let run_one o (w : Workloads.t) =
  pin ();
  let setup_times, inst = set_up o w in
  let budget = if o.trace then o.seconds /. 2. else o.seconds in
  let untraced = repeats o ~budget inst.repeat Tracer.off in
  let rss = peak_rss_mb () in
  let traced, tr =
    if o.trace then
      let tr = Tracer.create ~on:true in
      (repeats o ~budget inst.repeat tr, tr)
    else ([], Tracer.off)
  in
  let side = if o.trace then side_passes o w else [] in
  let all = untraced @ traced @ List.concat_map fst side in
  let attempted = total_ops all in
  let failed = List.fold_left (fun a (s : Workloads.sample) -> a + s.failed) 0 all in
  let metrics =
    if o.trace then
      workload_layers ~untraced ~traced tr
      @ inst.layers tr
      @ List.concat_map snd side
      @ Ledger.run ~smoke:o.smoke
    else end_to_end ~setup_times ~rss untraced
  in
  List.iter
    (fun m ->
      Printf.printf "%s %s %s %s\n" w.name m.Metric.name (fmt_float (Metric.value m)) m.Metric.unit)
    metrics;
  let error_rate = float_of_int failed /. float_of_int (max 1 attempted) in
  let open Obs.Json in
  let doc =
    Obj
      [
        ("schema", String "palladium.suite.v1");
        ("workload", String w.name);
        ("traced", Bool o.trace);
        ("stamp", stamp o ~repeats:(List.length untraced));
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("error_rate", Float error_rate);
        ("metrics", Obj (List.map metric_json metrics));
      ]
  in
  let name = if o.trace then "SUITE_layers_" else "SUITE_" in
  let path = write_json o (name ^ w.name ^ ".json") doc in
  if o.trace then begin
    Tracer.print_table tr ~ops:(total_ops traced);
    ignore (write_json o ("SUITE_trace_" ^ w.name ^ ".json") (Tracer.to_json tr ~workload:w.name))
  end;
  Printf.printf "[%s]\n" path;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* --- Child processes --------------------------------------------------- *)

let child_args o w =
  [ "run"; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds";
    string_of_int (int_of_float o.seconds); "--trace"; (if o.trace then "1" else "0");
    "--out"; o.out ]
  @ (match o.commit with Some c -> [ "--commit"; c ] | None -> [])
  @ if o.smoke then [ "--smoke" ] else []

(* Run one workload in a child process; returns its stdout lines and
   exit status. *)
let run_child o w =
  let args = Array.of_list (Sys.executable_name :: child_args o w) in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (String.split_on_char '\n' (String.trim out), status = Unix.WEXITED 0)

let run_all o =
  let ok =
    List.for_all
      (fun (w : Workloads.t) ->
        let lines, ok = run_child o w.name in
        List.iter print_endline lines;
        ok)
      Workloads.all
  in
  if not ok then exit 1

let run o =
  match o.workload with
  | None -> run_all o
  | Some name -> (
      match Workloads.find name with
      | Some w -> run_one o w
      | None ->
          Printf.eprintf "suite: unknown workload %S (expected %s)\n" name
            (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
          exit 2)

let benchmark_arg = function
  | [ "--benchmark"; f ] -> f
  | [] -> "BENCHMARK.json"
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: old_dir :: new_dir :: rest ->
      exit (Compare.main ~benchmark:(benchmark_arg rest) ~old_dir ~new_dir)
  | "smoke" :: rest ->
      exit
        (Smoke.main ~benchmark:(benchmark_arg rest) ~run_child:(fun ~seed ~trace ~out w ->
             run_child { default_opts with seed; trace; out; smoke = true } w))
  | "run" :: rest | rest -> run (parse default_opts rest)
