(* [suite compare OLD NEW]: OLD and NEW each hold the runs of one
   commit: one run's SUITE_<workload>.json files, or one subdirectory
   per run (for instance one per seed).  For every end-to-end metric of
   BENCHMARK.json and every workload, each run contributes its reported
   value, and each side is summarised by the median and quartiles of
   those values across its runs.  The change is that of the medians.  A
   metric is "unresolved" when the old side has fewer than
   [min_runs] runs or when the quartile spread of its values is wider
   than the metric's bound, unless every new run reads better than
   every old one; it regresses when the new median is worse
   than the old by more than the bound.  A metric of [Metric.exact]
   must instead be bit-identical in every run of both sides.  Exits 1
   on any regression, on a change to an exact metric, or on a higher
   error rate; 2 on unreadable input. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let load path =
  match In_channel.with_open_bin path In_channel.input_all |> Obs.Json.of_string with
  | Ok j -> j
  | Error e -> bad "%s: %s" path e
  | exception Sys_error e -> bad "%s" e

let field path key j =
  match Obs.Json.member key j with Some v -> v | None -> bad "%s: missing %S" path key

let num path key j =
  match Obs.Json.to_float (field path key j) with
  | Some f -> f
  | None -> bad "%s: %S is not a number" path key

let str path key j =
  match Obs.Json.to_str (field path key j) with
  | Some s -> s
  | None -> bad "%s: %S is not a string" path key

let list path key j =
  match Obs.Json.to_list (field path key j) with
  | Some l -> l
  | None -> bad "%s: %S is not a list" path key

type bound = { b_name : string; b_lower_better : bool; b_bound : float }

let bounds benchmark =
  let j = load benchmark in
  List.map
    (fun m ->
      {
        b_name = str benchmark "name" m;
        b_lower_better = str benchmark "better" m = "lower";
        b_bound = num benchmark "bound" m;
      })
    (list benchmark "end_to_end" j)

let workloads benchmark =
  List.map (str benchmark "name") (list benchmark "workloads" (load benchmark))

let min_runs = 3

let has_run dir w = Sys.file_exists (Filename.concat dir ("SUITE_" ^ w ^ ".json"))

(* The run directories of one side: [dir] itself if it holds a run of
   [w], and each subdirectory that does. *)
let run_dirs dir w =
  let subs =
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (Filename.concat dir)
    |> List.filter (fun d -> Sys.is_directory d && has_run d w)
  in
  (if has_run dir w then [ dir ] else []) @ subs

let doc dir w =
  let path = Filename.concat dir ("SUITE_" ^ w ^ ".json") in
  (path, load path)

(* Each run's reported value of [metric]. *)
let values dirs w metric =
  List.map
    (fun dir ->
      let path, d = doc dir w in
      num path "value" (field path metric (field path "metrics" d)))
    dirs

(* Failed ops / attempted ops over all runs of a side. *)
let error_rate dirs w =
  let f, a =
    List.fold_left
      (fun (f, a) dir ->
        let path, d = doc dir w in
        (f +. num path "failed" d, a +. num path "attempted" d))
      (0., 0.) dirs
  in
  f /. Float.max 1. a

let summary vs =
  let q1, med, q3 = Quantiles.quartiles vs in
  Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3

(* (change of the medians, verdict, whether it fails the comparison) *)
let verdict b ~old ~next =
  let oq1, omed, oq3 = Quantiles.quartiles old in
  let change = (Quantiles.median next -. omed) /. omed in
  let worse = if b.b_lower_better then change else -.change in
  if List.mem b.b_name Metric.exact then
    if List.for_all (Float.equal (List.hd old)) (old @ next) then (change, "identical", false)
    else (change, "DIFFERS", true)
  else if List.length old < min_runs then (change, "unresolved", false)
  else if (oq3 -. oq1) /. omed > b.b_bound then
    let better n o = if b.b_lower_better then n < o else n > o in
    if List.for_all (fun n -> List.for_all (better n) old) next then (change, "better", false)
    else (change, "unresolved", false)
  else if worse > b.b_bound then (change, "REGRESSION", true)
  else (change, "ok", false)

let main ~benchmark ~old_dir ~new_dir =
  try
    let bounds = bounds benchmark in
    List.iter
      (fun d -> if not (Sys.file_exists d && Sys.is_directory d) then bad "%s: no such directory" d)
      [ old_dir; new_dir ];
    let failures = ref 0 in
    Printf.printf "%-9s %-19s %5s %-32s %-32s %8s  %s\n" "workload" "metric" "runs"
      "old median [q1, q3]" "new median [q1, q3]" "change" "verdict";
    List.iter
      (fun w ->
        match (run_dirs old_dir w, run_dirs new_dir w) with
        | [], _ | _, [] -> Printf.printf "%-9s (no runs on one side)\n" w
        | od, nd ->
            let runs = Printf.sprintf "%d/%d" (List.length od) (List.length nd) in
            List.iter
              (fun b ->
                let old = values od w b.b_name and next = values nd w b.b_name in
                let change, v, failing = verdict b ~old ~next in
                if failing then incr failures;
                Printf.printf "%-9s %-19s %5s %-32s %-32s %+7.2f%%  %s\n" w b.b_name runs
                  (summary old) (summary next) (100. *. change) v)
              bounds;
            let oe = error_rate od w and ne = error_rate nd w in
            if ne > oe then begin
              incr failures;
              Printf.printf "%-9s %-19s %5s %-32g %-32g %8s  REGRESSION\n" w "error_rate" runs
                oe ne ""
            end)
      (workloads benchmark);
    if !failures > 0 then 1 else 0
  with Bad msg ->
    Printf.eprintf "suite compare: %s\n" msg;
    2
