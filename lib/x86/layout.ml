(* The Linux 2.0 virtual-address-space layout the paper builds on
   (Figure 2): user code/data segments span 0-3 GByte at SPL 3, kernel
   code/data segments span 3-4 GByte at SPL 0.  Constants here are used
   by the kernel substrate and by the Palladium extension mechanisms. *)

let page_size = Phys_mem.page_size

let gb = 1 lsl 30

let user_base = 0

let user_limit = (3 * gb) - 1 (* highest valid user offset *)

let kernel_base = 3 * gb

let kernel_limit = gb - 1 (* kernel segments: base 3GB, limit 1GB *)

let address_space_top = (4 * gb) - 1

(* Program-image layout inside the user region (Figure 2). *)
let text_base = 0x0804_8000 (* classic Linux ELF load address *)

let shared_lib_base = 0x4000_0000 (* middle of the 0-3GB range *)

let stack_top = (3 * gb) - page_size

let default_stack_pages = 32

(* Kernel extension segments live inside 3-4 GByte (Figure 3). *)
let kernel_ext_base = kernel_base + (512 * 1024 * 1024)

let kernel_ext_region_size = 256 * 1024 * 1024

(* Well-known GDT slots, mirroring Linux conventions. *)
let gdt_kernel_code = 1

let gdt_kernel_data = 2

let gdt_user_code = 3

let gdt_user_data = 4

let is_user_address a = a >= user_base && a <= user_limit

let is_kernel_address a = a >= kernel_base && a <= address_space_top

let page_align_down a = a land lnot (page_size - 1)

let page_align_up a = (a + page_size - 1) land lnot (page_size - 1)

let pages_spanning ~start ~len =
  if len <= 0 then 0
  else
    let first = page_align_down start in
    let last = page_align_down (start + len - 1) in
    ((last - first) / page_size) + 1
