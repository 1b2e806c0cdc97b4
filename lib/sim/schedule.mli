(** Cycle-level execution of a compiled instruction stream on a
    generated accelerator (Sec. 6.3).

    Three issue policies:

    - [In_order]: the ORIANNA-IO variant — instructions issue strictly
      in program order (an instruction may not start before its
      predecessor has started), stalling on operand dependencies and
      structural hazards;
    - [Ooo_fine]: dataflow issue {e within} each algorithm, but
      algorithms of the application execute one after another — this
      isolates the contribution of coarse-grained reordering;
    - [Ooo_full]: the ORIANNA-OoO variant — dataflow issue across the
      whole application; instructions of different algorithms
      interleave freely on the shared units.

    Scheduling is greedy list scheduling with critical-path priority,
    which is what a scoreboard with a full instruction window
    achieves. *)

open Orianna_isa
open Orianna_hw

type policy = In_order | Ooo_fine | Ooo_full

exception
  Deadlock of {
    cycle : int;  (** simulated cycle at which progress stopped *)
    stuck : int list;  (** instruction ids ready or arriving but unschedulable *)
    occupancy : (Unit_model.unit_class * int list) list;
        (** per class, the busy-until cycle of every live instance —
            an empty list means the class has no live instances *)
  }
(** Raised when no pending instruction can ever issue — in practice
    only when a unit class required by the program has zero live
    instances (a faulted accelerator).  Structured so fault-campaign
    logs can name the stuck instructions and the unit occupancy. *)

val policy_name : policy -> string

type result = {
  cycles : int;  (** makespan *)
  seconds : float;
  dynamic_energy_j : float;
  static_energy_j : float;
  energy_j : float;
  phase_busy : (Instr.phase * int) list;  (** busy cycles per phase *)
  unit_busy : (Unit_model.unit_class * int) list;
  utilization : (Unit_model.unit_class * float) list;  (** busy / (makespan * instances) *)
  instructions : int;
  starts : int array;  (** per-instruction start cycle *)
  finishes : int array;
  issue_base : int array;
      (** earliest cycle each instruction may issue at: 0, or the
          partition start under [Ooo_fine] — the base of the stall
          accounting *)
  stall_operand_cycles : int;
      (** summed over instructions: cycles spent waiting on operands
          (a source still executing) before issue, relative to the
          instruction's earliest issue cycle (0, or the partition start
          under [Ooo_fine]) *)
  stall_structural_cycles : int;
      (** summed over instructions: cycles between operands ready and
          issue — every unit instance of the class busy, or the serial
          in-order controller.  Per instruction,
          [stall_operand + stall_structural + latency = finish - base],
          so the totals tie out against the makespan accounting. *)
}

type priority_policy =
  | Critical_path  (** longest latency-weighted path to a sink (default) *)
  | Fifo  (** program order among ready instructions *)

type prepared
(** The accelerator-invariant part of scheduling one program: unit
    classes, dependency edges, [Ooo_fine] partitions, dynamic energy,
    and — filled lazily, once per QR rotator width — unit latencies and
    critical-path priorities.  Safe to share across domains: the DSE
    evaluates its candidates on one [prepared] from every pool lane. *)

val prepare : Program.t -> prepared

val run_prepared :
  ?priority:priority_policy ->
  ?jitter:(int -> int) ->
  accel:Accel.t ->
  policy:policy ->
  prepared ->
  result
(** Schedule the prepared program on [accel].  [jitter] (fault
    injection) adds extra execution cycles to an instruction on top of
    its analytic unit latency; negative values are clamped to 0.
    Results do not depend on which runs, accelerators or domains
    shared the [prepared] before. *)

val run :
  ?priority:priority_policy ->
  ?jitter:(int -> int) ->
  accel:Accel.t ->
  policy:policy ->
  Program.t ->
  result
(** [run_prepared] on a fresh [prepare]: for one-off schedules.  Call
    sites that schedule one program on many accelerators (the DSE
    objective) prepare once and call {!run_prepared}. *)

val check_invariants : accel:Accel.t -> Program.t -> result -> (unit, string) Stdlib.result
(** Runtime assertion of the schedule's internal accounting, re-derived
    from nominal unit latencies: per instruction
    [stall_operand + stall_structural + latency = finish - issue_base],
    causality ([start >= operands ready]), latency conformance
    ([finish - start] equals the unit model), and makespan consistency.
    [Error msg] names the first violation — under fault injection this
    is the detector for latency anomalies. *)

val frame_seconds : result -> float
(** Alias for [.seconds] — one compiled program is one frame's
    iteration. *)

val pp_result : Format.formatter -> result -> unit
