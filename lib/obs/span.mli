(** The in-program recorder: nestable begin/end spans and instants
    (off by default), stamped with the caller's clock — the simulated
    CPU cycle counter for machine-level phases, DES microseconds for
    the web-server model.

    Each completed span feeds its duration into
    [Histogram.get_or_create name], so one profiled run produces both
    a timeline (for the Chrome-trace and folded-stack exporters) and
    per-phase latency distributions.  An instant is a zero-length
    entry for a point event; it feeds no histogram.  Entries live in
    a bounded ring per sink ({!capacity}, default 1024): once it is
    full the oldest entry is overwritten and counted in {!dropped}.

    Hot call sites should guard with [if Span.on () then …]; every
    entry point is also a no-op while disabled. *)

type completed = Span_state.completed = {
  sp_id : int;
  sp_parent : int option;  (** id of the enclosing span *)
  sp_name : string;
  sp_start : int;
  sp_stop : int;  (** equals [sp_start] for an instant *)
  sp_depth : int;  (** nesting depth at begin time; roots are 0 *)
  sp_track : int;  (** display lane (Chrome-trace [tid]); default 1 *)
  sp_args : (string * string) list;
  sp_instant : bool;  (** a point event, kept out of histograms *)
}

val on : unit -> bool

val set_enabled : bool -> unit

val capacity : unit -> int

val set_capacity : int -> unit
(** Keeps the newest [min (length ()) n] buffered entries, in order
    and with their ids; entries that no longer fit are added to
    {!dropped}.  Raises [Invalid_argument] on a non-positive
    capacity. *)

val dropped : unit -> int
(** Entries lost to ring overflow since the last {!clear}. *)

val begin_ : ?args:(string * string) list -> string -> at:int -> unit
(** Open a span at stamp [at], nested inside the innermost open span. *)

val end_ : ?args:(string * string) list -> string -> at:int -> unit
(** Close the innermost open span named [name], appending [args] to
    the ones given at begin time.  Spans left open inside it are
    implicitly closed at the same stamp and counted in
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

val instant : ?args:(string * string) list -> string -> at:int -> unit
(** Record a point event at stamp [at], under the innermost open span. *)

val spans : unit -> completed list
(** Buffered entries in start order (ties: begin order, so parents
    precede children). *)

val entries : unit -> completed list
(** Buffered entries in recording order, oldest first. *)

val length : unit -> int

val open_depth : unit -> int
(** Number of currently open (unfinished) spans. *)

val unbalanced : unit -> int
(** Value of the [obs.span.unbalanced] counter. *)

val clear : unit -> unit
(** Drop all entries, open and buffered, and zero {!dropped}; keeps the
    capacity and does not touch histograms. *)

(** {2 Listing} *)

val families : string list
(** The values of {!family}, the vocabulary of the CLI's [--filter]:
    ["span"] takes every entry no other family names. *)

val family : completed -> string

val entry_to_json : completed -> Json.t
(** [{id; at_cycles; kind; name; dur (spans only); args}], [kind]
    being the {!family}. *)

val pp_entry : Format.formatter -> completed -> unit
(** One line: id, start stamp, name, [+duration] for spans, then
    [key=value] args. *)
