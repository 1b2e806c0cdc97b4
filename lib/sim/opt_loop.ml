open Orianna_isa
open Orianna_hw

(* The measured side of the profile-guided optimization loop: [Opt]
   owns the passes and the accept-if-better fixpoint, this module
   closes the loop with the cycle-level scheduler — compile ->
   [Schedule.run] -> operand-stall attribution -> feed both the cycle
   count and the per-producer stall weights back into the optimizer.
   {!post_compile} is the one place that decides, from the [-O]
   level, whether a compiled stream gets the measured loop; the
   pipeline, the serving compile path, the serve cache key, the CLI
   and the bench all go through it. *)

let probe ?accel ?(policy = Schedule.Ooo_full) () : Opt.probe =
  let accel = match accel with Some a -> a | None -> Accel.base () in
  fun p ->
    let r = Schedule.run ~accel ~policy p in
    (r.Schedule.cycles, Trace.operand_stalls p r)

let optimize_traced ?accel ?(policy = Schedule.Ooo_full) ?(level = 1) p =
  let accel = match accel with Some a -> a | None -> Accel.base () in
  Opt.optimize_traced ~level ~cost_model:(Accel.cost_model accel) ~probe:(probe ~accel ~policy ()) p

let optimize ?accel ?policy ?level p =
  let p', _, _ = optimize_traced ?accel ?policy ?level p in
  p'

let effective_level l = if l <= 0 then 0 else if l < 3 then 1 else 3

let post_compile_traced ~level p =
  if effective_level level < 3 then (p, None)
  else
    let p', _, rep = optimize_traced ~level:3 p in
    (p', Some rep)

let post_compile ~level p = fst (post_compile_traced ~level p)
