(** Privilege rings (SPL) and page privilege levels (PPL) of the x86
    architecture as used by Palladium.  Ring 0 is most privileged. *)

type ring = R0 | R1 | R2 | R3

type t = ring

val to_int : ring -> int

val of_int : int -> ring
(** Raises [Invalid_argument] outside 0..3. *)

val compare : ring -> ring -> int

val equal : ring -> ring -> bool

val is_at_least_as_privileged : ring -> ring -> bool
(** [is_at_least_as_privileged a b] — code at ring [a] may access
    resources guarded at ring [b]. *)

val more_privileged : ring -> ring -> bool

val less_privileged : ring -> ring -> bool

val weakest : ring -> ring -> ring
(** Numerically larger (less privileged) of the two; the effective
    privilege max(CPL, RPL) of a data access. *)

type page_level = Supervisor | User

val default_page_level : ring -> page_level
(** PPL 0 for segments at SPL 0..2, PPL 1 for SPL 3 (paper section 3.1). *)

val may_access_page : ring -> page_level -> bool
(** The x86 user/supervisor page check. *)

val pp : ring Fmt.t

val pp_page : page_level Fmt.t
