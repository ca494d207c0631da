(** Domain-parallel fleet runner.

    [run ~domains ~worlds f] executes [f 0 .. f (worlds-1)] — each
    call expected to boot and drive one isolated Palladium world —
    sharded round-robin over OCaml domains (world [i] runs on domain
    [i mod domains]).  Every world runs under a fresh {!Obs.Sink.t},
    so its metrics are world-local regardless of scheduling and the
    per-world results of a parallel run are bit-identical to a serial
    ([~domains:1]) run of the same seeds; the sinks are merged into a
    fleet aggregate at join time. *)

type 'a world_result = {
  wr_world : int;  (** world index, 0-based *)
  wr_value : 'a;
  wr_sink : Obs.Sink.t;  (** the world's private sink, post-run *)
  wr_elapsed : float;  (** wall-clock seconds this world took *)
}

type 'a t = {
  f_results : 'a world_result list;  (** ascending world index *)
  f_merged : Obs.Sink.t;  (** {!Obs.Sink.merge} of every world sink *)
  f_elapsed : float;  (** wall-clock seconds for the whole fleet *)
  f_domains : int;
  f_worlds : int;
}

val run : ?domains:int -> worlds:int -> (int -> 'a) -> 'a t
(** Run the fleet.  [?domains] defaults to
    [min worlds (Domain.recommended_domain_count ())] and is never
    raised above [Domain.recommended_domain_count ()] ([f_domains]
    records the count used); [~domains:1] runs serially on the calling
    domain (the baseline for speedup and determinism comparisons).  An
    exception in any world is re-raised here after all domains joined.
    Raises [Invalid_argument] on a negative world count or a
    non-positive domain count. *)

(** {2 Non-blocking fleets}

    [start] launches the same sharded fleet as {!run} but returns
    immediately, leaving the calling domain free to poll an exposition
    endpoint and flush telemetry while the worlds run; [join] blocks
    until every world finished and returns the same ['a t] that {!run}
    would have. *)

type 'a handle

val start : ?domains:int -> worlds:int -> (int -> 'a) -> 'a handle
(** Launch the fleet in the background.  Unlike {!run}, even a
    1-domain fleet runs on a spawned domain.  Same argument
    validation and domain clamp as {!run}. *)

val completed : 'a handle -> int
(** Worlds finished so far (atomic; safe to poll from the caller). *)

val finished : 'a handle -> bool
(** [completed h >= worlds].  [join] still must be called to collect
    results. *)

val join : 'a handle -> 'a t
(** Wait for every domain, then assemble results exactly as {!run}
    (re-raising the first failed world's exception).  Call at most
    once. *)

val results : 'a t -> 'a world_result list

val values : 'a t -> 'a list
(** World values in world order. *)

val merged : 'a t -> Obs.Sink.t

val elapsed : 'a t -> float

val speedup : serial:float -> parallel:float -> float
(** [serial /. parallel] (0 when [parallel] is degenerate). *)

val divergences : 'a t -> 'a t -> (int * string) list
(** Per-world determinism check between two runs of the same seeds
    (typically serial vs parallel): compares each world's nonzero
    counters and histogram contents; returns [(world, diagnosis)]
    pairs, empty when bit-identical. *)
