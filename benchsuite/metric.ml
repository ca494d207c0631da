(* A named metric, its raw values (one per repeat, set-up or
   measurement) and the statistic that reports them.

   Host throughput and latency report the best repeat: each repeat is
   the same fixed work of a deterministic program, and interference
   from the host only ever slows a repeat down, so the fastest repeat is
   the least disturbed measurement of it.  Everything else reports the
   median. *)

type stat = Median | Max | Min

type t = { name : string; unit : string; stat : stat; raw : float list }

let make ?(stat = Median) name unit raw = { name; unit; stat; raw }

let value m =
  match m.stat with
  | Median -> Quantiles.median m.raw
  | Max -> List.fold_left Float.max neg_infinity m.raw
  | Min -> List.fold_left Float.min infinity m.raw

let stat_name = function Median -> "median" | Max -> "max" | Min -> "min"

(* End-to-end metrics that depend only on the simulated machine.  A
   change must leave them bit-identical unless it means to change the
   simulation, whatever bound BENCHMARK.json gives them. *)
let exact = [ "sim_cycles_per_op" ]
