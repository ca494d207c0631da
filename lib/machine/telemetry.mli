(** Wiring a telemetry {!Obs.Collector} to a simulated CPU.

    {!attach} chains the collector onto the CPU's periodic tick
    ({!Cpu.set_on_tick}): the previously installed callback — the
    kernel watchdog, when attaching to a booted world's CPU — keeps
    firing first with its period unchanged, then the collector is
    offered [Cpu.cycles] and samples whenever a boundary in simulated
    time has passed.  Sampling on simulated cycles keeps the sampled
    series deterministic: bit-identical between serial and parallel
    fleet runs of the same world. *)

val attach : Obs.Collector.t -> Cpu.t -> unit
(** Chain [collector] onto [cpu]'s tick.  Attach after the world is
    booted (so the watchdog hook is already in place) and attach a
    given collector to only one CPU. *)

val flush : Obs.Collector.t -> Cpu.t -> unit
(** Capture the partial interval since the last sampled boundary at
    the CPU's current cycle stamp — call when the world's workload
    ends (see {!Obs.Collector.flush}). *)
