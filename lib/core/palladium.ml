(* Facade tying the Palladium pieces together: boot a simulated
   machine with the Palladium-modified kernel, then create extensible
   applications (user-level mechanism, behind a segmentation or a
   protection-key boundary) and kernel extension segments
   (kernel-level mechanism).

   See {!User_ext} and {!Kernel_ext} for the two mechanisms,
   {!Stub_gen} for the Figure 6 control-transfer sequences, {!Guard}
   for the protected-memory service, and {!Ulib} for ready-made
   extension images. *)

let version = "0.9.0"

type world = { kernel : Kernel.t }

let boot ?params ?verify_policy ?audit_policy ?budget_policy ?budget_cycles
    ?backend () =
  let kernel = Kernel.boot ?params () in
  (* Per-world policy overrides go on the kernel (as strings — the
     kern layer cannot see the policy types) before the first audit,
     so even the boot audit runs under the world's own policy. *)
  (match verify_policy with
  | Some p ->
      Kernel.set_policy_override kernel ~name:"verify" (Verify.policy_name p)
  | None -> ());
  (match audit_policy with
  | Some p ->
      Kernel.set_policy_override kernel ~name:"audit"
        (Audit.Engine.policy_name p)
  | None -> ());
  (match budget_policy with
  | Some p ->
      Kernel.set_policy_override kernel ~name:"budget" (Vcost.policy_name p)
  | None -> ());
  (match budget_cycles with
  | Some n ->
      Kernel.set_policy_override kernel ~name:"budget_cycles" (string_of_int n)
  | None -> ());
  (match backend with
  | Some b ->
      Kernel.set_policy_override kernel ~name:"backend" (Pbackend.kind_name b)
  | None -> ());
  let w = { kernel } in
  Paudit.maybe_audit ~context:"boot" w.kernel;
  w

(* Explicit world teardown: drop the per-kernel state upper layers
   hung on the kernel (today: the auditor's registry and generation
   cache).  Optional — the state dies with the kernel anyway — but
   long-lived fleet processes that boot many transient worlds can
   reclaim eagerly. *)
let teardown w = Paudit.forget w.kernel

let kernel w = w.kernel

let cpu w = Kernel.cpu w.kernel

(* An extensible application, promoted to SPL 2 and ready to load
   SPL 3 extensions. *)
let create_app w ~name = User_ext.create w.kernel ~name

(* The world's effective protection backend, and an application
   behind its boundary (segmentation or protection keys). *)
let backend w = Pbackend.effective w.kernel

let create_backend_app ?backend w ~name =
  let backend =
    match backend with Some b -> b | None -> Pbackend.effective w.kernel
  in
  User_ext.create ~backend w.kernel ~name

(* A kernel extension segment at SPL 1. *)
let create_kernel_segment ?(size = Pconfig.kernel_ext_segment_bytes) w =
  let seg = Kernel_ext.create w.kernel ~size in
  Paudit.maybe_audit ~context:"create_kernel_segment" w.kernel;
  seg
