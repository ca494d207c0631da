(** Nestable begin/end spans (off by default), stamped with the
    caller's clock — the simulated CPU cycle counter for machine-level
    phases, DES microseconds for the web-server model.

    Each completed span feeds its duration into
    [Histogram.get_or_create name], so one profiled run produces both
    a timeline (for the Chrome-trace and folded-stack exporters) and
    per-phase latency distributions.

    Hot call sites should guard with [if Span.on () then …]; every
    entry point is also a no-op while disabled. *)

type completed = {
  sp_id : int;
  sp_parent : int option;  (** id of the enclosing span *)
  sp_name : string;
  sp_start : int;
  sp_stop : int;
  sp_depth : int;  (** nesting depth at begin time; roots are 0 *)
  sp_track : int;  (** display lane (Chrome-trace [tid]); default 1 *)
  sp_args : (string * string) list;
}

val on : unit -> bool

val set_enabled : bool -> unit

val begin_ : ?args:(string * string) list -> string -> at:int -> unit
(** Open a span at stamp [at], nested inside the innermost open span. *)

val end_ : string -> at:int -> unit
(** Close the innermost open span named [name].  Spans left open
    inside it are implicitly closed at the same stamp and counted in
    [obs.span.unbalanced]; an end with no matching begin is dropped
    and counted likewise. *)

val record :
  ?args:(string * string) list ->
  ?track:int ->
  ?parent:int ->
  string ->
  start:int ->
  stop:int ->
  int option
(** Record a complete span after the fact — phases recovered from CPU
    marks, DES request lifecycles.  Parented under [parent] when
    given, else under the innermost open span.  Returns the new
    span's id ([None] while disabled) for use as a later [parent]. *)

val spans : unit -> completed list
(** Completed spans in start order (ties: begin order, so parents
    precede children). *)

val length : unit -> int

val open_depth : unit -> int
(** Number of currently open (unfinished) spans. *)

val unbalanced : unit -> int
(** Value of the [obs.span.unbalanced] counter. *)

val clear : unit -> unit
(** Drop all spans, open and completed (does not touch histograms). *)

val dump : Format.formatter -> unit -> unit
