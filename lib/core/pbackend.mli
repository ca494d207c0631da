(** Protection-backend selection.

    A backend is one answer to "how is the application/extension
    boundary enforced": [Segmentation] is the paper's user-level
    mechanism, [Mpk] the protection-key re-expression of its paging
    half.  Both are boundaries of the one extension host, {!User_ext};
    the hosting functions here are that host's functions under
    backend-neutral names.  The software-fault-isolation baselines
    rewrite modules instead of hosting applications, so they are not
    backends here (see [Sfi] and [bench backends]).

    Selection layers, weakest to strongest:
    process default ([set_default], seeded from [PALLADIUM_BACKEND])
    < per-world override ([Palladium.boot ?backend], stored in the
    kernel's policy-override table under ["backend"]) < an explicit
    [?backend] argument to [Palladium.create_backend_app] or
    [User_ext.create]. *)

type kind = User_ext.kind = Segmentation | Mpk

val kind_name : kind -> string
(** "seg" | "mpk". *)

val kind_of_string : string -> kind option
(** Accepts the [kind_name] spellings plus common aliases
    ("segmentation", "pku", "keys"). *)

val expected : string
(** Human-readable list of accepted spellings, for error messages. *)

val default : unit -> kind

val set_default : kind -> unit

val effective : Kernel.t -> kind
(** The backend this kernel's world runs under: its ["backend"] policy
    override when set and parseable, else the process default. *)

(** {2 Hosting: aliases of the {!User_ext} functions} *)

type app = User_ext.t

val backend_of : app -> kind

val task : app -> Task.t

val kernel_of : app -> Kernel.t

val load : app -> Image.t -> User_ext.extension
(** [User_ext.seg_dlopen]. *)

val resolve : app -> User_ext.extension -> string -> int
(** [User_ext.seg_dlsym]: a function's protected-call entry stub. *)

val dlsym_data : User_ext.extension -> string -> int

val xmalloc : User_ext.extension -> int -> int

val call : app -> prepare:int -> arg:int -> (int * int, User_ext.call_error) result

val expose_range : app -> addr:int -> len:int -> unit

val hide_range : app -> addr:int -> len:int -> unit

val peek_u32 : app -> int -> int

val poke_u32 : app -> int -> int -> unit

val peek_bytes : app -> int -> int -> Bytes.t

val poke_bytes : app -> int -> Bytes.t -> unit
