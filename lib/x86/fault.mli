(** Protection faults raised by the simulated MMU and CPU. *)

type access = Read | Write | Execute

type t =
  | Null_selector
  | Descriptor_missing of { selector : Selector.t }
  | Segment_not_present of { selector : Selector.t }
  | Limit_violation of {
      selector : Selector.t;
      offset : int;
      limit : int;
      access : access;
    }
  | Segment_privilege of {
      selector : Selector.t;
      cpl : Privilege.ring;
      rpl : Privilege.ring;
      dpl : Privilege.ring;
    }
  | Segment_type of { selector : Selector.t; expected : string }
  | Gate_privilege of {
      selector : Selector.t;
      cpl : Privilege.ring;
      gate_dpl : Privilege.ring;
    }
  | Invalid_transfer of { reason : string }
  | Page_not_present of { linear : int; access : access }
  | Page_privilege of { linear : int; access : access; cpl : Privilege.ring }
  | Page_readonly of { linear : int }
  | Page_key of { linear : int; access : access; key : int }

type access_t = access

exception Fault of t

val raise_ : t -> 'a

val vector : t -> int
(** The x86 exception vector: 13 (#GP), 11 (#NP) or 14 (#PF). *)

val is_page_fault : t -> bool

val pp : t Fmt.t

val to_string : t -> string
