(** Software fault isolation (Wahbe et al., SOSP '93): the
    software-only sandboxing baseline of paper sections 2.1/2.3.
    Guarded accesses are address-coerced into a power-of-two-aligned
    region via and/or masking around a spilled scratch register. *)

type policy = Write_only | Read_write

type mode =
  | Full  (** guard every qualifying access *)
  | Verified
      (** consult the load-time verifier ([Verify.proved_instrs]) and
          elide guards on accesses proven inside the region *)

type region = { base : int; size : int }

val scratch : Reg.t
(** The register spilled around each guarded access. *)

val rewrite_program :
  ?mode:mode ->
  ?entries:string list ->
  ?externs:(string -> bool) ->
  ?arg:int * int ->
  policy ->
  region ->
  Asm.program ->
  Asm.program
(** [mode] defaults to [Full].  Under [Verified], [entries]/[externs]/
    [arg] are handed to the verifier (see [Verify.verify]); guards are
    elided only on instructions whose every access is proved inside
    the region, so an undecodable program degrades to full guarding. *)

val sandbox_image :
  ?mode:mode -> ?arg:int * int -> policy -> region -> Image.t -> Image.t
(** Rewrite an image's text; data/exports unchanged.  The image's
    exports and symbols seed the verifier in [Verified] mode. *)

val inserted_instructions :
  ?mode:mode ->
  ?entries:string list ->
  ?externs:(string -> bool) ->
  ?arg:int * int ->
  ?region:region ->
  policy ->
  Asm.program ->
  int
(** Static guard-instruction overhead, for reporting.  The default
    region is a 1 MiB sandbox at 0. *)
