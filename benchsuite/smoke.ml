(* [suite smoke]: the tier-1 check of the benchmark itself.  Runs every
   workload at smoke size, untraced and traced, twice, each run in a
   child process as in a real run, and checks that
   - every metric BENCHMARK.json names is reported with its unit,
   - no op failed its output oracle,
   - the protected null call costs 161 cycles under seg and 88 under
     mpk, so crossing's mean is 124.5,
   - the deterministic columns are identical in both invocations.
   It asserts nothing about host time. *)

(* Metrics that depend only on the simulated machine and the program's
   allocation, never on the host. *)
let deterministic =
  Metric.exact
  @ [
      "alloc_words_per_op"; "machine.instructions_per_op";
      "machine.bcache.hit_ratio"; "machine.bcache.translates_per_op";
      "machine.gate_transits_per_op"; "machine.sreg_loads_per_op";
      "x86.tlb.hit_ratio"; "x86.phys.accesses_per_op";
      "x86.mmu.page_walks_per_op"; "x86.seg.descriptor_loads_per_op";
      "kern.syscalls_per_op"; "audit.runs_per_op"; "core.call_cycles.seg";
      "core.call_cycles.mpk"; "bpf.native_cycles_per_pkt";
      "bpf.interp_cycles_per_pkt"; "websrv.sim_rps";
    ]

let names_units path key =
  let j = Compare.load path in
  List.map
    (fun m -> (Compare.str path "name" m, Compare.str path "unit" m))
    (Compare.list path key j)

(* The metrics of a run's final JSON line, as (name, (value, unit)). *)
let result lines =
  let last = List.nth lines (List.length lines - 1) in
  let j =
    match Obs.Json.of_string last with
    | Ok j -> j
    | Error e -> Compare.bad "final line is not JSON (%s): %s" e last
  in
  let metrics = Compare.field "result" "metrics" j in
  ( Obs.Json.member "failed" j,
    List.map
      (fun k ->
        let m = Compare.field "result" k metrics in
        ( k,
          ( Option.value (Obs.Json.to_float (Compare.field "result" "value" m)) ~default:nan,
            Compare.str "result" "unit" m ) ))
      (Obs.Json.keys metrics) )

let main ~benchmark ~run_child =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  try
    let e2e = names_units benchmark "end_to_end" in
    let layers = names_units benchmark "per_layer" in
    let out = Filename.temp_dir "suite_smoke" "" in
    let invocation () =
      List.concat_map
        (fun w ->
          List.map
            (fun trace ->
              let lines, ok = run_child ~seed:1 ~trace ~out w in
              if not ok then fail "%s trace=%b: child failed" w trace;
              let failed, metrics = result lines in
              if failed <> Some (Obs.Json.Int 0) then fail "%s: ops failed their oracle" w;
              List.iter
                (fun (name, unit) ->
                  match List.assoc_opt name metrics with
                  | None -> fail "%s trace=%b: %s missing" w trace name
                  | Some (_, u) when u <> unit -> fail "%s: %s unit %s, expected %s" w name u unit
                  | Some _ -> ())
                (if trace then layers else e2e);
              ((w, trace), metrics))
            [ false; true ])
        (Compare.workloads benchmark)
    in
    let first = invocation () in
    let second = invocation () in
    Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
    Sys.rmdir out;
    let value key name =
      Option.map fst (List.assoc_opt name (List.assoc key first))
    in
    let expect key name v =
      if value key name <> Some v then fail "%s: expected %g" name v
    in
    expect ("crossing", true) "core.call_cycles.seg" 161.;
    expect ("crossing", true) "core.call_cycles.mpk" 88.;
    expect ("crossing", false) "sim_cycles_per_op" 124.5;
    List.iter2
      (fun ((w, trace), a) (_, b) ->
        List.iter
          (fun name ->
            match (List.assoc_opt name a, List.assoc_opt name b) with
            | Some (x, _), Some (y, _) when not (Float.equal x y) ->
                fail "%s trace=%b: %s differs between invocations (%.17g vs %.17g)" w
                  trace name x y
            | _ -> ())
          deterministic)
      first second;
    List.iter (Printf.eprintf "suite smoke: %s\n") (List.rev !problems);
    if !problems = [] then begin
      print_endline "suite smoke: ok";
      0
    end
    else 1
  with Compare.Bad msg ->
    Printf.eprintf "suite smoke: %s\n" msg;
    1
