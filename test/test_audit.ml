(* Tests for the protection-state auditor: clean worlds audit to zero
   findings, every injected misconfiguration is cited by exactly its
   intended invariant, the reachability proof holds in clean states
   and catches planted rogue gates, random single-field corruption
   never slips through, incremental re-audit skips unchanged state,
   and the Reject policy refuses to continue. *)

module AS = Audit_scenarios
module E = Audit.Engine
module F = Audit.Finding

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let ids_of (r : E.report) =
  List.sort_uniq String.compare
    (List.map (fun f -> f.F.f_id) r.E.rp_findings)

let pp_findings (r : E.report) =
  String.concat "; "
    (List.map (fun f -> Fmt.str "%a" F.pp f) r.E.rp_findings)

(* --- clean scenarios ------------------------------------------------- *)

let test_clean_scenarios () =
  List.iter
    (fun (name, build) ->
      let kernel = build () in
      let r = E.run (Paudit.capture kernel) in
      Alcotest.(check string)
        (name ^ " audits clean: " ^ pp_findings r)
        "" (pp_findings r);
      check_int (name ^ " checks the whole catalogue")
        (List.length Audit.Invariant.catalogue + 1)
        r.E.rp_checked)
    AS.clean_scenarios

(* --- misconfiguration catalogue --------------------------------------- *)

let test_misconfigs () =
  check_bool "catalogue has at least 12 entries" true
    (List.length AS.misconfigs >= 12);
  List.iter
    (fun (m : AS.misconfig) ->
      let world = AS.build () in
      m.AS.mc_apply world;
      let r = AS.audit_world world in
      check_bool (m.AS.mc_name ^ " is flagged") true (r.E.rp_findings <> []);
      Alcotest.(check (list string))
        (m.AS.mc_name ^ " cites only " ^ m.AS.mc_id ^ ": " ^ pp_findings r)
        [ m.AS.mc_id ] (ids_of r))
    AS.misconfigs

(* --- reachability ------------------------------------------------------ *)

let test_reach_clean () =
  let world = AS.build () in
  let r = AS.audit_world world in
  let reach = r.E.rp_reach in
  check_int "no unaudited path into ring 0" 0
    (List.length reach.Audit.Reach.r_violations);
  (* the cut is non-vacuous: syscall vector, extension return gate,
     kernel service, AppCallGate and app service are all audited *)
  check_bool "at least five audited gate sites" true
    (List.length reach.Audit.Reach.r_audited >= 5);
  check_bool "graph has nodes" true (reach.Audit.Reach.r_nodes > 0);
  check_bool "graph has edges" true (reach.Audit.Reach.r_edges > 0)

let test_reach_rogue_gate () =
  let world = AS.build () in
  let gdt = Kernel.gdt world.AS.kernel in
  let slot =
    X86.Desc_table.alloc gdt
      (X86.Descriptor.call_gate ~dpl:X86.Privilege.R3
         ~target:(Kernel.kernel_code_selector world.AS.kernel)
         ~entry:(Kernel.syscall_entry_offset world.AS.kernel)
         ())
  in
  let r = AS.audit_world world in
  Alcotest.(check (list string)) "rogue gate yields REACH-01" [ "REACH-01" ]
    (ids_of r);
  let reach = r.E.rp_reach in
  check_bool "violations recorded" true
    (reach.Audit.Reach.r_violations <> []);
  (* every counterexample path ends in ring 0 through the rogue slot *)
  List.iter
    (fun (v : Audit.Reach.violation) ->
      match List.rev v.Audit.Reach.v_path with
      | last :: _ ->
          check_int "path lands in ring 0" 0 last.Audit.Reach.e_to.Audit.Reach.n_ring;
          check_bool "path enters through the rogue slot" true
            (last.Audit.Reach.e_site = Some (Audit.Reach.Ggdt slot))
      | [] -> Alcotest.fail "empty violation path")
    reach.Audit.Reach.r_violations;
  (* the start of each path is extension-privileged code, not kernel *)
  List.iter
    (fun (v : Audit.Reach.violation) ->
      check_bool "violation starts at SPL 3 or SPL 1" true
        (let ring = v.Audit.Reach.v_start.Audit.Reach.n_ring in
         ring = 3 || ring = 1))
    reach.Audit.Reach.r_violations

(* --- random single-field corruption ------------------------------------ *)

(* A corruption plan: which descriptor field to flip, chosen randomly.
   Whatever the dice say, the auditor must produce at least one
   finding — the catalogue has no blind spots among these families. *)
type corruption =
  | Boot_dpl of int * int  (* GDT slot 1-4, new DPL 1-2 *)
  | Boot_limit of int * int  (* GDT slot 1-4, extra pages 1-4 *)
  | Ext_dpl of bool * int  (* cs? / new DPL of the extension segment *)
  | Page_expose  (* U/S flip on a supervisor private page *)
  | Gate_retarget of int  (* ksvc gate entry skew *)
  | Tss_selector  (* ring-2 stack selector swapped for user data *)

let corruption_gen =
  let open QCheck.Gen in
  oneof
    [
      map2 (fun s d -> Boot_dpl (s, d)) (int_range 1 4) (int_range 1 2);
      map2 (fun s p -> Boot_limit (s, p)) (int_range 1 4) (int_range 1 4);
      map2 (fun cs d -> Ext_dpl (cs, d)) bool (int_range 0 3);
      return Page_expose;
      map (fun skew -> Gate_retarget (4 * (1 + skew))) (int_range 0 7);
      return Tss_selector;
    ]

let ring_of = function
  | 0 -> X86.Privilege.R0
  | 1 -> X86.Privilege.R1
  | 2 -> X86.Privilege.R2
  | _ -> X86.Privilege.R3

let apply_corruption (world : AS.world) c =
  let gdt = Kernel.gdt world.AS.kernel in
  let module Desc = X86.Descriptor in
  let module DT = X86.Desc_table in
  let redpl slot dpl =
    match DT.get gdt slot with
    | Some d -> DT.set gdt slot { d with Desc.dpl }
    | None -> Alcotest.fail "corruption: empty GDT slot"
  in
  match c with
  | Boot_dpl (slot, d) -> redpl slot (ring_of d)
  | Boot_limit (slot, pages) -> (
      match DT.get gdt slot with
      | Some d ->
          DT.set gdt slot
            { d with Desc.limit = d.Desc.limit + (pages * X86.Layout.page_size) }
      | None -> Alcotest.fail "corruption: empty GDT slot")
  | Ext_dpl (cs, d) ->
      let rs =
        List.find
          (fun (rs : Audit.Snapshot.registered_segment) ->
            not rs.Audit.Snapshot.rs_dead)
          (Paudit.segments world.AS.kernel)
      in
      let slot =
        if cs then rs.Audit.Snapshot.rs_cs else rs.Audit.Snapshot.rs_ds
      in
      redpl slot (ring_of d)
  | Page_expose ->
      let tk = User_ext.task world.AS.app in
      let dir = Address_space.directory tk.Task.asp in
      let areas = Address_space.areas tk.Task.asp in
      let a =
        List.find (fun a -> a.Vm_area.label = "palladium.data") areas
      in
      ignore
        (X86.Paging.set_user dir ~vpn:(a.Vm_area.va_start / X86.Layout.page_size)
           true)
  | Gate_retarget skew -> (
      let rs =
        List.find
          (fun (rs : Audit.Snapshot.registered_segment) ->
            not rs.Audit.Snapshot.rs_dead)
          (Paudit.segments world.AS.kernel)
      in
      match rs.Audit.Snapshot.rs_gates with
      | (slot, entry) :: _ ->
          DT.set gdt slot
            (Desc.call_gate ~dpl:X86.Privilege.R1
               ~target:(Kernel.kernel_code_selector world.AS.kernel)
               ~entry:(entry + skew) ())
      | [] -> Alcotest.fail "corruption: no ksvc gate")
  | Tss_selector -> (
      let tk = User_ext.task world.AS.app in
      match Tss.stack_slot tk.Task.tss X86.Privilege.R2 with
      | Some s ->
          Tss.set_stack tk.Task.tss X86.Privilege.R2
            {
              s with
              Tss.stack_selector = Kernel.user_data_selector world.AS.kernel;
            }
      | None -> Alcotest.fail "corruption: no ring-2 stack")

(* Ext_dpl can pick the legitimate DPL 1 — then nothing changed and a
   clean audit is the right answer.  Every other roll must be caught. *)
let is_noop = function Ext_dpl (_, 1) -> true | _ -> false

let prop_corruption_flagged =
  QCheck.Test.make ~count:10
    ~name:"random descriptor corruption always flagged"
    (QCheck.make corruption_gen ~print:(fun c ->
         match c with
         | Boot_dpl (s, d) -> Printf.sprintf "Boot_dpl(%d,%d)" s d
         | Boot_limit (s, p) -> Printf.sprintf "Boot_limit(%d,%d)" s p
         | Ext_dpl (cs, d) -> Printf.sprintf "Ext_dpl(%b,%d)" cs d
         | Page_expose -> "Page_expose"
         | Gate_retarget skew -> Printf.sprintf "Gate_retarget(%d)" skew
         | Tss_selector -> "Tss_selector"))
    (fun c ->
      let world = AS.build () in
      apply_corruption world c;
      let r = AS.audit_world world in
      if is_noop c then r.E.rp_findings = [] else r.E.rp_findings <> [])

(* --- incremental re-audit ---------------------------------------------- *)

let counter name snap = match List.assoc_opt name snap with Some v -> v | None -> 0

let test_incremental_skip () =
  let world = AS.build () in
  let kernel = world.AS.kernel in
  (* prime the generation cache *)
  Paudit.maybe_audit ~context:"test" kernel;
  let before = Obs.Counters.snapshot () in
  Paudit.maybe_audit ~context:"test" kernel;
  Paudit.maybe_audit ~context:"test" kernel;
  let after = Obs.Counters.snapshot () in
  check_int "unchanged state skips" 2
    (counter "audit.skipped" after - counter "audit.skipped" before);
  check_int "no full audit ran" 0
    (counter "audit.pass" after - counter "audit.pass" before);
  (* any descriptor write invalidates the generation *)
  let gdt = Kernel.gdt kernel in
  let slot =
    X86.Desc_table.alloc gdt
      (X86.Descriptor.data ~base:0 ~limit:X86.Layout.user_limit
         ~dpl:X86.Privilege.R3 ())
  in
  X86.Desc_table.clear gdt slot;
  Paudit.maybe_audit ~context:"test" kernel;
  let final = Obs.Counters.snapshot () in
  check_int "mutation forces a re-audit" 1
    (counter "audit.pass" final - counter "audit.pass" after)

(* --- policy ------------------------------------------------------------ *)

let with_policy p f =
  let saved = Pconfig.audit_policy () in
  Pconfig.set_audit_policy p;
  Fun.protect ~finally:(fun () -> Pconfig.set_audit_policy saved) f

let test_reject_policy () =
  with_policy E.Reject (fun () ->
      (* clean builds survive Reject: maybe_audit runs inside *)
      let world = AS.build () in
      (* a misconfigured state must refuse to continue *)
      X86.Desc_table.unsafe_set (Kernel.gdt world.AS.kernel) 0
        (X86.Descriptor.data ~base:0 ~limit:0xfff ~dpl:X86.Privilege.R0 ());
      match Paudit.force_audit ~context:"test" world.AS.kernel with
      | _ -> Alcotest.fail "Reject policy did not raise"
      | exception E.Rejected (ctx, r) ->
          Alcotest.(check string) "context carried" "test" ctx;
          check_bool "report carried" true (r.E.rp_findings <> []))

let test_warn_policy_continues () =
  with_policy E.Warn (fun () ->
      let world = AS.build () in
      X86.Desc_table.unsafe_set (Kernel.gdt world.AS.kernel) 0
        (X86.Descriptor.data ~base:0 ~limit:0xfff ~dpl:X86.Privilege.R0 ());
      let r = Paudit.force_audit ~context:"test" world.AS.kernel in
      check_bool "warn returns the findings" true (r.E.rp_findings <> []))

let test_policy_parsing () =
  let check_policy s expect =
    Alcotest.(check (option string))
      ("parse " ^ s) expect
      (Option.map E.policy_name (E.policy_of_string s))
  in
  check_policy "off" (Some "off");
  check_policy "WARN" (Some "warn");
  check_policy " reject " (Some "reject");
  check_policy "bogus" None;
  check_bool "verify parser agrees" true
    (Pconfig.verify_policy_of_string "reject" = Some Verify.Reject);
  check_bool "verify parser rejects junk" true
    (Pconfig.verify_policy_of_string "junk" = None)

(* --- descriptor mutation observability ---------------------------------- *)

let test_desc_mutation_counters () =
  let before = Obs.Counters.snapshot () in
  let gdt = X86.Desc_table.gdt () in
  let slot =
    X86.Desc_table.alloc gdt
      (X86.Descriptor.data ~base:0 ~limit:0xfff ~dpl:X86.Privilege.R0 ())
  in
  X86.Desc_table.set gdt slot
    (X86.Descriptor.data ~base:0 ~limit:0x1fff ~dpl:X86.Privilege.R0 ());
  X86.Desc_table.clear gdt slot;
  let after = Obs.Counters.snapshot () in
  let delta name = counter name after - counter name before in
  check_int "x86.gdt.alloc" 1 (delta "x86.gdt.alloc");
  check_int "x86.gdt.set" 1 (delta "x86.gdt.set");
  check_int "x86.gdt.clear" 1 (delta "x86.gdt.clear")

let test_audit_trace_events () =
  Obs.Span.set_capacity 256;
  Obs.Span.set_enabled true;
  let world = AS.build () in
  Paudit.force_audit ~context:"trace-test" world.AS.kernel |> ignore;
  Obs.Span.set_enabled false;
  let entries = Obs.Span.entries () in
  let has_kind k = List.exists (fun e -> Obs.Span.family e = k) entries in
  check_bool "desc mutation events traced" true (has_kind "desc");
  check_bool "audit outcome events traced" true (has_kind "audit")

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "all clean scenarios" `Quick test_clean_scenarios;
        ] );
      ( "misconfig",
        [ Alcotest.test_case "catalogue" `Slow test_misconfigs ] );
      ( "reach",
        [
          Alcotest.test_case "clean proof" `Quick test_reach_clean;
          Alcotest.test_case "rogue gate" `Quick test_reach_rogue_gate;
        ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest prop_corruption_flagged ] );
      ( "incremental",
        [ Alcotest.test_case "generation skip" `Quick test_incremental_skip ] );
      ( "policy",
        [
          Alcotest.test_case "reject raises" `Quick test_reject_policy;
          Alcotest.test_case "warn continues" `Quick test_warn_policy_continues;
          Alcotest.test_case "parsing" `Quick test_policy_parsing;
        ] );
      ( "observability",
        [
          Alcotest.test_case "descriptor counters" `Quick
            test_desc_mutation_counters;
          Alcotest.test_case "trace events" `Quick test_audit_trace_events;
        ] );
    ]
