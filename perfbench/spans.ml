(* The benchmark's own span recorder.  Every call into a layer's public
   function is wrapped in [span], so layer time is measured from outside
   the program.  Spans stay in memory and are written out when the run
   ends.  While recording is off, [span] is a direct call. *)

type t = {
  id : int;
  name : string;
  item : int;  (** shared by the spans of one frame, replay or tick *)
  parent : int;  (** id of the enclosing span, or -1 *)
  start_s : float;
  stop_s : float;
}

let on = ref false
let epoch = ref 0.0
let now () = Unix.gettimeofday () -. !epoch
let next_id = ref 0
let item = ref 0
let open_ids : int list ref = ref []
let completed : t list ref = ref []

(* Start recording on the clock of the program's [Obs] registry, so the
   program's own spans and ours share one timeline. *)
let start () =
  Orianna_obs.Obs.enable ();
  epoch := Unix.gettimeofday () -. Orianna_obs.Obs.now_s ();
  completed := [];
  open_ids := [];
  on := true

let stop () =
  on := false;
  Orianna_obs.Obs.disable ()

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let item = !item in
    open_ids := id :: !open_ids;
    let start_s = now () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        completed := { id; name; item; parent; start_s; stop_s = now () } :: !completed)
      f
  end

let recorded () = List.rev !completed

(* ---- interval arithmetic for self time and coverage ---- *)

(* Sorted, disjoint union of intervals. *)
let union intervals =
  let sorted = List.sort compare intervals in
  let rec merge acc = function
    | [] -> List.rev acc
    | (a, b) :: rest -> (
        match acc with
        | (a0, b0) :: acc' when a <= b0 -> merge ((a0, Float.max b0 b) :: acc') rest
        | _ -> merge ((a, b) :: acc) rest)
  in
  Array.of_list (merge [] sorted)

(* Length of [lo, hi] covered by a sorted disjoint union. *)
let covered merged (lo, hi) =
  let n = Array.length merged in
  (* first interval ending after lo *)
  let rec search l r = if l >= r then l else
      let m = (l + r) / 2 in
      if snd merged.(m) <= lo then search (m + 1) r else search l m
  in
  let rec sum i acc =
    if i >= n || fst merged.(i) >= hi then acc
    else
      let a, b = merged.(i) in
      sum (i + 1) (acc +. Float.max 0.0 (Float.min b hi -. Float.max a lo))
  in
  sum (search 0 n) 0.0

let interval s = (s.start_s, s.stop_s)
let named name spans = List.filter (fun s -> s.name = name) spans
(* Total length of [spans]; nan when there are none, so that a layer
   whose span was never recorded reads as unmeasured, not as free. *)
let total = function
  | [] -> nan
  | spans -> List.fold_left (fun acc s -> acc +. (s.stop_s -. s.start_s)) 0.0 spans

(* Time of [outer] spans not covered by [inner] intervals. *)
let self_time outer inner =
  let merged = union inner in
  List.fold_left (fun acc s -> acc +. (s.stop_s -. s.start_s) -. covered merged (interval s)) 0.0 outer

(* The program's [Obs] spans, flattened across every domain's span
   forest, as (name, start, stop) on the shared timeline. *)
let program_spans () =
  Orianna_obs.Obs.fold_spans
    (fun acc (s : Orianna_obs.Obs.span) -> (s.name, s.start_s, s.start_s +. s.dur_s) :: acc)
    [] (Orianna_obs.Obs.spans ())

let program_intervals names spans =
  List.filter_map (fun (n, a, b) -> if List.mem n names then Some (a, b) else None) spans

(* Total length of the program's spans called [name]; nan when there
   are none. *)
let program_total name spans =
  match program_intervals [ name ] spans with
  | [] -> nan
  | intervals -> List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 intervals

(* Chrome trace: our layer spans on their own process, the program's
   spans and the pool's lanes on theirs. *)
let write_chrome path ~pool =
  let module C = Orianna_obs.Chrome_trace in
  let module Json = Orianna_obs.Json in
  let pid = 10 in
  let ours =
    C.Process_name { pid; name = "perfbench layers" }
    :: List.map
         (fun s ->
           C.Duration
             {
               name = s.name;
               cat = "layer";
               pid;
               tid = 0;
               ts_us = s.start_s *. 1e6;
               dur_us = (s.stop_s -. s.start_s) *. 1e6;
               args = [ ("item", Json.int s.item); ("id", Json.int s.id); ("parent", Json.int s.parent) ];
             })
         (recorded ())
  in
  C.write_file path
    (ours @ C.of_spans (Orianna_obs.Obs.spans ()) @ Orianna_par.Pool.chrome_events pool)
