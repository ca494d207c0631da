(** Linux 2.0 virtual address space layout constants (paper Figure 2/3). *)

val page_size : int

val gb : int

val user_limit : int
(** Highest valid offset of the 0-3 GByte user segments. *)

val kernel_base : int

val kernel_limit : int
(** Limit of the kernel segments (base 3 GB, 1 GB long). *)

val text_base : int

val shared_lib_base : int

val stack_top : int

val default_stack_pages : int

val kernel_ext_base : int
(** Start of the region from which kernel extension segments are carved. *)

val kernel_ext_region_size : int

val gdt_kernel_code : int

val gdt_kernel_data : int

val gdt_user_code : int

val gdt_user_data : int

val is_user_address : int -> bool

val is_kernel_address : int -> bool

val page_align_down : int -> int

val page_align_up : int -> int

val pages_spanning : start:int -> len:int -> int
