(** Per-world observability sink.

    Metric {e names and kinds} are process-wide, but metric {e values}
    — counter cells, the histogram registry and the span recorder —
    live in a sink.  Each domain carries a current sink in
    domain-local storage; the classic module-level APIs ({!Counters},
    {!Histogram}'s registry, {!Span}) read and
    write through it, so existing call sites keep working while N
    worlds run concurrently, each under {!with_sink} with its own
    sink.  {!merge} folds a finished world's sink into an aggregate at
    join time. *)

type t

val create : ?label:string -> unit -> t
(** A fresh, empty sink.  The default label is ["sink-<n>"]. *)

val label : t -> string

(** {2 The current sink}

    Domain-local: every domain starts with a private fresh sink and
    can rebind it.  [with_sink] is exception-safe and restores the
    previous binding. *)

val current : unit -> t

val with_sink : t -> (unit -> 'a) -> 'a

(** {2 Reading a sink}

    These read the given sink directly (not the current one), for
    post-join inspection of per-world results. *)

val counter_value : t -> string -> int
(** Value of the named counter in this sink; 0 when never registered
    or never bumped here. *)

val counters : t -> (string * int) list
(** Nonzero (name, value) pairs, sorted by name. *)

val histograms : t -> (string * Histogram.t) list
(** Named histograms recorded in this sink, sorted by name. *)

val find_histogram : t -> string -> Histogram.t option

(** {2 Join-time aggregation} *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counter and gauge values sum (fleet
    totals), histograms merge sample-exactly and [src]'s span-ring
    entries are replayed into [into]'s ring (span ids are
    process-unique, so parent links survive) with its drop count
    carried over.  The destination ring is bounded, so when the merged
    worlds recorded more entries than its capacity the newest are
    kept: the last sink merged wins and earlier entries count as
    drops.  Raises [Invalid_argument] when both arguments are the same
    sink. *)

(** {2 Metric descriptors (plumbing for {!Counters})}

    The process-wide registry of metric names and kinds.  Interning is
    mutex-guarded; handles are plain descriptors holding no value, so
    they can be resolved once at module initialisation and shared
    between domains. *)

type kind = Counter | Gauge

type descr

val register : ?help:string -> kind:kind -> string -> descr
(** Get-or-create.  Raises [Invalid_argument] when the name is already
    registered with the other kind.  [?help] is a one-line description
    for exposition ([# HELP] in the Prometheus text format); the first
    non-empty help string registered for a name wins. *)

val descr_name : descr -> string

val descr_kind : descr -> kind

val descr_help : descr -> string option

val find_descr : string -> descr option

val descrs : unit -> descr list
(** Every registered descriptor, sorted by name. *)

type cell = { mutable cv : int }

val cell : t -> descr -> cell
(** This sink's value cell for the descriptor (created on demand). *)

val value : t -> descr -> int

val reset_cells : t -> unit
(** Zero every counter and gauge value in this sink. *)

(** {2 Per-sink recorder state (plumbing for {!Span})} *)

val span_state : t -> Span_state.t
