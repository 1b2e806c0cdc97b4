(** Profile-guided optimization against the cycle-level scheduler.

    [Orianna_isa.Opt] owns the passes and the accept-if-better
    fixpoint; this module supplies the measurement: schedule the
    candidate on a concrete accelerator, return the makespan and the
    per-producer operand-stall attribution, and inject the
    accelerator's real cost model ({!Orianna_hw.Accel.cost_model}).
    With a measured probe the optimizer's guard holds at {e every}
    level: an optimized stream never schedules slower than its input
    on the probing accelerator/policy, and cycles are monotonically
    non-increasing in the level. *)

open Orianna_isa
open Orianna_hw

val probe : ?accel:Accel.t -> ?policy:Schedule.policy -> unit -> Opt.probe
(** Measurement hook for [Opt.optimize_traced]: [Schedule.run] under
    the given accelerator (default [Accel.base ()]) and policy
    (default [Ooo_full]), paired with
    [Trace.operand_stalls] attribution. *)

val optimize_traced :
  ?accel:Accel.t ->
  ?policy:Schedule.policy ->
  ?level:int ->
  Program.t ->
  Program.t * int array * Opt.report
(** [Opt.optimize_traced] with this accelerator's cost model and a
    measured probe.  Default level 1, accelerator [Accel.base ()],
    policy [Ooo_full]. *)

val optimize :
  ?accel:Accel.t -> ?policy:Schedule.policy -> ?level:int -> Program.t -> Program.t
(** {!optimize_traced} without the map and report. *)

val effective_level : int -> int
(** The level a requested [-O] level runs at: 0 at or below 0, 1 for
    1 and 2 (level 2 runs exactly what level 1 runs), 3 at or above
    3.  Levels with the same effective level produce identical
    streams. *)

val post_compile_traced : level:int -> Program.t -> Program.t * Opt.report option
(** The step every shipped path runs after [Compile ~opt_level:level]:
    below effective level 3 the stream comes back unchanged with
    [None]; at level 3 the measured loop ({!optimize_traced} at level
    3 on [Accel.base ()] under [Ooo_full]) runs and its report comes
    back too. *)

val post_compile : level:int -> Program.t -> Program.t
(** {!post_compile_traced} without the report. *)
