(** Unix error numbers (Linux values); system calls return [-errno]. *)

type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EBADF
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EBUSY
  | EEXIST
  | EINVAL
  | ENOSYS
  | ETIME

val to_string : t -> string

val to_ret : t -> int
(** The syscall return encoding [-code]. *)

val of_ret : int -> t option
(** [None] for non-negative (success) values; raises
    [Invalid_argument] on unknown negative codes. *)

val pp : t Fmt.t
