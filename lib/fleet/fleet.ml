(* Domain-parallel fleet runner.

   [run ~domains ~worlds f] executes [f 0 .. f (worlds-1)] — each call
   expected to boot and drive one isolated Palladium world — sharded
   round-robin over OCaml domains.  Every world runs under a fresh
   {!Obs.Sink.t}, so its counters, histograms, traces and spans are
   world-local regardless of which domain it lands on, and the
   per-world results are bit-identical to a serial run of the same
   seeds.  At join time the sinks are merged into a fleet aggregate.

   Sharding is static (world i runs on domain [i mod domains]) so the
   world-to-domain assignment is itself deterministic; because worlds
   share no mutable state, the schedule cannot change any world's
   results, only the wall-clock. *)

type 'a world_result = {
  wr_world : int;  (* world index, 0-based *)
  wr_value : 'a;
  wr_sink : Obs.Sink.t;
  wr_elapsed : float; (* seconds of wall clock this world took *)
}

type 'a t = {
  f_results : 'a world_result list; (* ascending world index *)
  f_merged : Obs.Sink.t;
  f_elapsed : float; (* wall clock of the whole fleet, seconds *)
  f_domains : int;
  f_worlds : int;
}

let now = Unix.gettimeofday

let run_world f i =
  let sink = Obs.Sink.create ~label:(Printf.sprintf "world-%d" i) () in
  let t0 = now () in
  let v = Obs.Sink.with_sink sink (fun () -> f i) in
  { wr_world = i; wr_value = v; wr_sink = sink; wr_elapsed = now () -. t0 }

(* Never more domains than the host recommends: every minor GC stops
   all domains, so one descheduled domain on an oversubscribed host
   stalls the rest, and the fleet runs slower than serially. *)
let check_args ~fn ?domains ~worlds () =
  if worlds < 0 then invalid_arg (Printf.sprintf "Fleet.%s: negative world count" fn);
  let cores = Domain.recommended_domain_count () in
  match domains with
  | Some d ->
      if d < 1 then invalid_arg (Printf.sprintf "Fleet.%s: domains must be >= 1" fn);
      min d cores
  | None -> max 1 (min worlds cores)

let assemble ~t0 ~domains ~worlds slots =
  let results =
    List.init worlds (fun i ->
        match slots.(i) with
        | Some (Ok r) -> r
        | Some (Error e) -> raise e
        | None -> assert false)
  in
  let merged = Obs.Sink.create ~label:"fleet-merged" () in
  List.iter (fun r -> Obs.Sink.merge ~into:merged r.wr_sink) results;
  {
    f_results = results;
    f_merged = merged;
    f_elapsed = now () -. t0;
    f_domains = domains;
    f_worlds = worlds;
  }

let run ?domains ~worlds f =
  let domains = check_args ~fn:"run" ?domains ~worlds () in
  let t0 = now () in
  let slots = Array.make (max worlds 1) None in
  let work d =
    (* static round-robin shard: worlds d, d+domains, d+2*domains, … *)
    let i = ref d in
    while !i < worlds do
      slots.(!i) <- Some (try Ok (run_world f !i) with e -> Error e);
      i := !i + domains
    done
  in
  if domains = 1 || worlds <= 1 then work 0
  else
    (* Spawned domains fill disjoint slots; Domain.join gives the
       happens-before edge that publishes them back to this domain. *)
    List.init (min domains worlds) (fun d -> Domain.spawn (fun () -> work d))
    |> List.iter Domain.join;
  assemble ~t0 ~domains ~worlds slots

(* --- Non-blocking handle ---------------------------------------------- *)

(* [start] always spawns — even a 1-domain fleet runs off the calling
   domain — so the caller stays free to poll an exposition endpoint,
   flush telemetry and watch [completed] while the worlds run.  The
   atomic completion counter is the only cross-domain signal before
   [join]; the result slots are published by Domain.join exactly as in
   [run]. *)
type 'a handle = {
  h_slots : ('a world_result, exn) result option array;
  h_doms : unit Domain.t list;
  h_done : int Atomic.t;
  h_domains : int;
  h_worlds : int;
  h_t0 : float;
}

let start ?domains ~worlds f =
  let domains = check_args ~fn:"start" ?domains ~worlds () in
  let t0 = now () in
  let slots = Array.make (max worlds 1) None in
  let done_ = Atomic.make 0 in
  let work d =
    let i = ref d in
    while !i < worlds do
      slots.(!i) <- Some (try Ok (run_world f !i) with e -> Error e);
      Atomic.incr done_;
      i := !i + domains
    done
  in
  let doms =
    List.init (min domains worlds) (fun d -> Domain.spawn (fun () -> work d))
  in
  {
    h_slots = slots;
    h_doms = doms;
    h_done = done_;
    h_domains = domains;
    h_worlds = worlds;
    h_t0 = t0;
  }

let completed h = Atomic.get h.h_done

let finished h = Atomic.get h.h_done >= h.h_worlds

let join h =
  List.iter Domain.join h.h_doms;
  assemble ~t0:h.h_t0 ~domains:h.h_domains ~worlds:h.h_worlds h.h_slots

let results t = t.f_results

let merged t = t.f_merged

let elapsed t = t.f_elapsed

let values t = List.map (fun r -> r.wr_value) t.f_results

let speedup ~serial ~parallel =
  if parallel <= 0.0 then 0.0 else serial /. parallel

(* Do two runs of the same seeds disagree anywhere?  Compares each
   world's nonzero counters and histogram contents (count/sum/min/max
   — sample-exact equality); returns the offending world indexes with
   a short diagnosis, empty when bit-identical. *)
let divergences a b =
  let fingerprint h =
    ( Obs.Histogram.count h,
      Obs.Histogram.sum h,
      Obs.Histogram.min_value h,
      Obs.Histogram.max_value h )
  in
  let diverge (ra, rb) =
    if Obs.Sink.counters ra.wr_sink <> Obs.Sink.counters rb.wr_sink then
      Some (ra.wr_world, "counters differ")
    else
      let ha = List.map (fun (n, h) -> (n, fingerprint h)) (Obs.Sink.histograms ra.wr_sink) in
      let hb = List.map (fun (n, h) -> (n, fingerprint h)) (Obs.Sink.histograms rb.wr_sink) in
      if ha <> hb then Some (ra.wr_world, "histograms differ") else None
  in
  if List.length a.f_results <> List.length b.f_results then
    [ (-1, "world counts differ") ]
  else
    List.filter_map diverge (List.combine a.f_results b.f_results)
