(** Privilege-transfer reachability: build the static graph of every
    architecturally possible control transfer between (ring, segment)
    nodes and prove that, with the audited gates cut out, no SPL 3 or
    SPL 1 code can reach SPL 0. *)

type seg_ref =
  | Rgdt of int
  | Rldt of { pid : int; slot : int }

type node = { n_ring : int; n_seg : seg_ref }

type gate_site =
  | Ggdt of int
  | Gldt of { pid : int; slot : int }
  | Gidt of int

type edge = {
  e_from : node;
  e_to : node;
  e_via : string;  (** ["call-gate"], ["int"], ["trap"], ["lret"], ["far"] *)
  e_site : gate_site option;  (** the gate this edge passes through *)
  e_audited : bool;
      (** the gate sits at a loader-registered site (AppCallGate slot,
          kernel-service slot, or the syscall vector) *)
}

type violation = { v_start : node; v_path : edge list }
(** A path from an SPL 3 / SPL 1 node into ring 0 that avoids every
    audited gate; [v_path] is in traversal order and its last edge
    lands in ring 0. *)

type result = {
  r_nodes : int;
  r_edges : int;
  r_audited : gate_site list;
  r_violations : violation list;
}

val analyse : Snapshot.t -> result

val findings : result -> Finding.t list
(** One [REACH-01] finding per distinct offending gate site. *)

val result_json : result -> Obs.Json.t
