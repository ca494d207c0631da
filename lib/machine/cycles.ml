(* The cycle-accounting model.

   Each instruction is charged a base cost taken from the Pentium
   Processor Family Developer's Manual (1995) — the manual the paper
   itself cites for its "Hardware" column in Table 1 — plus explicit
   penalty constants for the pipeline/descriptor-load hazards the paper
   observed ("The difference between the measured and theoretical cycle
   counts is mainly due to data/control pipeline hazards", section 5.1).

   Calibration: the penalties below were tuned once so that executing
   the paper's Figure 6 stub sequences on the simulator reproduces the
   measured column of Table 1 (142 cycles for an inter-domain call,
   10 for an intra-domain call) and the 12-cycle measured segment
   register load.  Nothing else in the repository is calibrated against
   Table 1; Tables 2-3 and Figure 7 are produced by running actual
   instruction sequences under this same model. *)

type params = {
  alu : int;
  mov : int;
  lea : int;
  mem_read_extra : int; (* extra cycles for a memory source operand *)
  mem_write_extra : int; (* extra cycles for a memory destination *)
  push : int;
  pop : int;
  xchg_mem : int; (* xchg with memory is locked and slow *)
  call_near : int;
  ret_near : int;
  jmp : int;
  jcc_not_taken : int;
  jcc_taken : int;
  imul : int;
  (* Far control transfers: theoretical base from the manual, plus the
     measured hazard penalty. *)
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
      (* protection-key rights write: serializing, but no descriptor
         loads and no pipeline flush to another ring — the whole point
         of an MPK-style domain switch *)
  (* Memory-system costs. *)
  tlb_walk : int; (* per page-table reference on a TLB miss *)
  (* Fault processing: hardware exception delivery before any handler
     software runs. *)
  fault_transfer : int;
  task_switch : int;
  hlt : int;
}

let pentium =
  {
    alu = 1;
    mov = 1;
    lea = 1;
    mem_read_extra = 1;
    mem_write_extra = 2; (* write-buffer stalls in back-to-back stores *)
    push = 1;
    pop = 1;
    xchg_mem = 3;
    call_near = 1;
    ret_near = 2;
    jmp = 1;
    jcc_not_taken = 1;
    jcc_taken = 3; (* includes the V-pipe flush of a taken branch *)
    imul = 10;
    lcall_gate_same_pl = 22;
    lcall_gate_pl_change = 44;
    lcall_hazard = 31; (* measured: 75-cycle "Returning to caller" row *)
    lret_same_pl = 4;
    lret_pl_change = 23;
    lret_hazard = 6;
    int_gate = 59;
    int_gate_pl_change = 71;
    iret_base = 27;
    iret_pl_change = 36;
    mov_sreg = 3;
    mov_sreg_hazard = 9; (* measured 12 vs manual 2-3, section 5.1 *)
    push_sreg = 1;
    wrpkru = 23;
    tlb_walk = 10;
    fault_transfer = 250;
    task_switch = 85;
    hlt = 1;
  }

(* Frequency of the paper's test machine: Pentium 200 MHz. *)
let mhz = 200

let cycles_to_usec cycles = float_of_int cycles /. float_of_int mhz

let usec_to_cycles usec = int_of_float (usec *. float_of_int mhz)

(* Theoretical ("Hardware" column) costs: the manual numbers with no
   hazard penalties. *)
let theoretical_lcall_pl_change p = p.lcall_gate_pl_change

let theoretical_lret_pl_change p = p.lret_pl_change

let measured_mov_sreg p = p.mov_sreg + p.mov_sreg_hazard
