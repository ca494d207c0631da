(** The user-level extension mechanism (paper section 4.4): the one
    extension host, with a two-case compartment boundary.

    An application loads extensions into areas of its own address
    space and calls their functions through generated entry stubs.
    Under {b segmentation}, the paper's mechanism, init_PL promotes
    the application to SPL 2 (its writable pages become PPL 0),
    extensions run in SPL 3 segments over the same 0-3 GByte range,
    and calls go through Prepare/Transfer stubs with AppCallGate as
    the return path.  Under {b keys} (MPK-style) the application stays
    at ring 3 with its writable pages under {!app_key}, extension areas
    carry the extension key, and a call is one stub that writes PKRU
    twice; wrong-key accesses raise [Fault.Page_key] exactly where
    segmentation raises PPL faults. *)

(** The two boundaries (named and selected by {!Pbackend}). *)
type kind = Segmentation | Mpk

val app_key : int
(** Protection key of a keys-boundary application's writable private
    pages (1). *)

(** A loaded extension: its image, stack, heap and generated stubs. *)
type extension = {
  x_name : string;
  x_handle : Dyld.handle;
  x_arg_slot : int;  (** top extension-stack slot; initial extension ESP *)
  x_heap_end : int;
  mutable x_heap_cursor : int;
  mutable x_functions : (string * int) list;
      (** function name -> entry stub address *)
}

(** Why a protected call did not complete. *)
type call_error =
  | Protection_fault of X86.Fault.t
      (** the extension strayed outside its domain; SIGSEGV was
          delivered to the application *)
  | Time_limit_exceeded of Watchdog.expiry
      (** the per-invocation CPU budget expired (SIGALRM delivered) *)
  | Runaway  (** simulator instruction fuel exhausted *)

type t

(** {2 Creating an extensible application} *)

val create : ?backend:kind -> Kernel.t -> name:string -> t
(** Create a task, install the user-mode runtime and the data and stub
    regions, and promote the process behind [backend]'s boundary
    (default [Segmentation]): AppCallGate, init_PL and the return gate;
    or init_mpk and the auditor's MPK domain.  The returned application
    is ready to load extensions. *)

val backend_of : t -> kind

val task : t -> Task.t

val runtime : t -> Runtime.t

val env : t -> Dyld.env

val kernel : t -> Kernel.t

val calls : t -> int
(** Number of protected calls made so far. *)

val set_time_limit : t -> int -> unit
(** Per-invocation CPU budget in cycles (paper section 4.5.2). *)

(** {2 Loading extensions} *)

val seg_dlopen : t -> Image.t -> extension
(** Load an image into a fresh extension segment (text, data, GOT,
    stack and heap areas) and mark its pages for the boundary: the
    paper's measured PPL-marking charge (all areas PPL 1), or the
    extension key on every area followed by an audit. *)

val seg_dlsym : t -> extension -> string -> int
(** Resolve an extension {e function} and return a pointer to a
    generated entry stub for it (Prepare, or the wrpkru stub; cached
    per function).  Data symbols must use {!dlsym_data} — only
    function pointers are "massaged" (paper section 4.5.1). *)

val dlsym_data : extension -> string -> int
(** Plain dlsym for data symbols inside the extension segment. *)

val xmalloc : extension -> int -> int
(** Allocate from the extension's heap (writable by the extension);
    raises [Invalid_argument] when exhausted. *)

(** {2 Calling} *)

val call : t -> prepare:int -> arg:int -> (int * int, call_error) result
(** Protected extension call through the entry stub, under the
    watchdog.  [Ok (result, cycles)] on completion. *)

val call_unprotected : t -> fn:int -> arg:int -> (int * int, call_error) result
(** Baseline: a plain local call in the application's own domain. *)

(** {2 Range management and services} *)

val expose_range : t -> addr:int -> len:int -> unit
(** Make pages visible to extensions: set_range to PPL 1, or set_key
    to key 0. *)

val hide_range : t -> addr:int -> len:int -> unit
(** Hide pages again: set_range to PPL 0, or set_key to {!app_key}. *)

val add_service : t -> name:string -> handler:(args_base:int -> int) -> int
(** Expose an application service to extensions behind a DPL 3 call
    gate (the encapsulation required for buffering libc routines,
    section 4.4.1).  [handler] receives the address of the arguments
    the extension pushed on its own stack; its return value goes back
    in EAX.  Returns the encoded gate selector.
    @raise Invalid_argument under the keys boundary, whose ring 3
    application has no SPL 2 for the service body. *)

val services : t -> (string * int) list

(** {2 Memory access helpers (kernel-side, for tests and services)} *)

val peek_u32 : t -> int -> int

val peek_bytes : t -> int -> int -> Bytes.t

val poke_bytes : t -> int -> Bytes.t -> unit

val poke_u32 : t -> int -> int -> unit

val pp_call_error : call_error Fmt.t
