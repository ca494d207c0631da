(** Exporters over the observability registries.  All three are pure
    views over Span/Counters/Histogram state — no filesystem access. *)

val chrome_trace : ?ts_scale:float -> Span.completed list -> Json.t
(** Chrome trace-event JSON (complete ["X"] events for spans, instant
    ["i"] events for instants), loadable in
    Perfetto or [chrome://tracing].  [ts]/[dur] are the span stamps
    multiplied by [ts_scale] (default 1.0, i.e. raw cycles; pass
    [1.0 /. mhz] for microseconds). *)

val prometheus : ?prefix:string -> unit -> string
(** Prometheus text exposition of every registered counter, gauge and
    histogram.  Dotted names are sanitized ('.' -> '_') and prefixed
    (default ["palladium_"]); every family gets [# HELP] (the
    descriptor's registered help, or a derived fallback) and [# TYPE]
    lines; histograms emit cumulative [_bucket{le="..."}] series plus
    [_sum] and [_count].  Help text and label values are escaped per
    the text-format spec (backslash, newline, and for labels the
    double quote). *)

val escape_label_value : string -> string
(** Escape a string for use inside a label value: backslash, double
    quote and newline get a leading backslash per the text-format
    spec. *)

val folded : Span.completed list -> string
(** Folded-stacks text ("root;child;leaf self-weight" per line, sorted
    by stack), the input format of flamegraph tools.  Weights are
    *self* times: a span's duration minus its direct children's.
    Instants are left out. *)

val pp_histograms : Format.formatter -> unit -> unit
(** Aligned per-span-name table: count, mean, p50/p90/p99/max. *)
