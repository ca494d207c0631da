(** Pentium cycle model: per-instruction base costs from the Pentium
    Developer's Manual plus calibrated hazard penalties (see the
    calibration note in the implementation). *)

type params = {
  alu : int;
  mov : int;
  lea : int;
  mem_read_extra : int;
  mem_write_extra : int;
  push : int;
  pop : int;
  xchg_mem : int;
  call_near : int;
  ret_near : int;
  jmp : int;
  jcc_not_taken : int;
  jcc_taken : int;
  imul : int;
  lcall_gate_same_pl : int;
  lcall_gate_pl_change : int;
  lcall_hazard : int;
  lret_same_pl : int;
  lret_pl_change : int;
  lret_hazard : int;
  int_gate : int;
  int_gate_pl_change : int;
  iret_base : int;
  iret_pl_change : int;
  mov_sreg : int;
  mov_sreg_hazard : int;
  push_sreg : int;
  wrpkru : int;
  tlb_walk : int;
  fault_transfer : int;
  task_switch : int;
  hlt : int;
}

val pentium : params

val mhz : int
(** 200 MHz, the paper's test machine. *)

val cycles_to_usec : int -> float

val usec_to_cycles : float -> int

val theoretical_lcall_pl_change : params -> int

val theoretical_lret_pl_change : params -> int

val measured_mov_sreg : params -> int
