(* Protection-backend selection: one name for "how is the compartment
   boundary enforced", selectable per process (PALLADIUM_BACKEND or
   set_default) and per world (Palladium.boot ?backend, stored in the
   kernel's policy-override table like the verify/audit/budget
   policies).  Both backends are boundaries of the one extension host,
   User_ext: [Segmentation] is the paper's mechanism (SPL 2 promotion,
   PPL marking, lret/lcall gate transfers), [Mpk] the protection-key
   one (flat ring 3 segments, per-page keys, wrpkru entry stubs).  The
   hosting functions below are the host's own, under backend-neutral
   names. *)

type kind = User_ext.kind = Segmentation | Mpk

let kind_name = function Segmentation -> "seg" | Mpk -> "mpk"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seg" | "segmentation" -> Some Segmentation
  | "mpk" | "pku" | "keys" -> Some Mpk
  | _ -> None

let expected = "seg|mpk"

(* Process default, like the policy defaults in Verify/Vcost/Engine:
   atomic, domain-safe, seedable from the environment. *)
let default_kind = Atomic.make Segmentation

let default () = Atomic.get default_kind

let set_default k = Atomic.set default_kind k

let () =
  Ppolicy.seed_env "PALLADIUM_BACKEND" ~parse:kind_of_string ~expected
    ~set:set_default

(* The backend one specific world runs under: its kernel's override
   when set and parseable, else the process default. *)
let effective kernel =
  match Kernel.policy_override kernel "backend" with
  | Some s -> ( match kind_of_string s with Some k -> k | None -> default ())
  | None -> default ()

type app = User_ext.t

let backend_of = User_ext.backend_of

let task = User_ext.task

let kernel_of = User_ext.kernel

let load = User_ext.seg_dlopen

let resolve = User_ext.seg_dlsym

let dlsym_data = User_ext.dlsym_data

let xmalloc = User_ext.xmalloc

let call = User_ext.call

let expose_range = User_ext.expose_range

let hide_range = User_ext.hide_range

let peek_u32 = User_ext.peek_u32

let poke_u32 = User_ext.poke_u32

let peek_bytes = User_ext.peek_bytes

let poke_bytes = User_ext.poke_bytes
