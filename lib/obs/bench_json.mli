(** [BENCH_<name>.json] emission (schema [palladium.bench.v1]): the
    subcommand-specific body is wrapped with the schema tag and a
    counter snapshot (plus a delta when the entry snapshot is given). *)

val schema_version : string

val file_name : ?prefix:string -> string -> string
(** [prefix ^ name ^ ".json"]; the prefix defaults to ["BENCH_"]
    (the verifier artifacts use ["VERIFY_"]). *)

val measurement :
  ?stddev:float -> ?paper:Json.t -> Json.t -> Json.t
(** [{"measured": v; "stddev": s?; "paper": p?}]. *)

val document :
  name:string ->
  ?since:(string * int) list ->
  ?histogram:string * Histogram.t ->
  body:(string * Json.t) list ->
  unit ->
  Json.t

val write :
  dir:string ->
  ?prefix:string ->
  name:string ->
  ?since:(string * int) list ->
  ?histogram:string * Histogram.t ->
  body:(string * Json.t) list ->
  unit ->
  string
(** Writes the document to [dir/BENCH_<name>.json]; returns the path.
    [since] should be the {!Counters.snapshot} taken when the
    subcommand started; [histogram] is the latency distribution of the
    subcommand's primary metric ([(metric_name, histogram)]), emitted
    as the ["histogram"] field. *)
