(** Dynamic loader: dlopen / dlsym / dlclose over {!Image.t} with
    GOT/PLT indirection for imports.

    Binding is eager and the GOT — placed in its own page-aligned
    region — is write-protected once bound, matching the requirements
    Palladium's user-extension mechanism places on the dynamic linker
    (paper section 4.4.2). *)

type sym_kind = Func | Data

(** Process-wide symbol environment. *)
type env

val create_env : unit -> env

val lookup : env -> string -> (int * sym_kind) option

exception Missing_symbol of string

type handle = {
  h_image : Image.t;
  h_text_base : int;
  h_data_base : int;
  h_got_base : int option;
  h_symbols : (string, int * sym_kind) Hashtbl.t;
  h_areas : Vm_area.t list;
}

(** Where and as what kind of areas an image is loaded. *)
type placement = {
  text_kind : Vm_area.kind;
  data_kind : Vm_area.kind;
  text_addr : int option;
}

val executable : placement
(** Fixed load at the classic text base. *)

val extension_segment : placement
(** Ext_code/Ext_data areas (PPL 1 under a promoted application). *)

val dlopen :
  ?placement:placement ->
  kernel:Kernel.t ->
  task:Task.t ->
  env:env ->
  Image.t ->
  handle
(** Map text/data/GOT areas, assemble (appending PLT stubs), bind the
    GOT eagerly, write-protect it, publish exports and charge the
    measured load cost.  Raises {!Missing_symbol}. *)

val dlsym : handle -> string -> int
(** Raises {!Missing_symbol}. *)

val dlclose : kernel:Kernel.t -> task:Task.t -> env:env -> handle -> unit
(** Unmap the image's areas (flushing the TLB) and retract its
    function exports. *)
