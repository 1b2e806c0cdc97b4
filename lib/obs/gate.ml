type op = Le | Ge | Eq

type check = { path : string; op : op; bound : float; tolerance : float }

type error = { file : string; key : string; path : string; reason : string }

type verdict = { check : check; at : string; value : float; margin : float }

let error_message e =
  let tag label v = if v = "" then [] else [ label ^ v ] in
  String.concat ": " (tag "" e.file @ tag "key " e.key @ tag "path " e.path @ [ e.reason ])

let ( let* ) = Result.bind

(* Every value, or the first error. *)
let all rs = List.fold_right (fun r acc -> let* x = r in let* xs = acc in Ok (x :: xs)) rs (Ok [])

let parse ~file ~key text =
  try Ok (Json.parse text)
  with Json.Parse_error msg -> Error { file; key; path = ""; reason = "malformed JSON: " ^ msg }

(* "a.b[*].c" -> [Some "a"; Some "b"; None; Some "c"]: [None] is a [*]. *)
let segments path =
  List.concat_map
    (fun s ->
      if String.ends_with ~suffix:"[*]" s then [ Some (String.sub s 0 (String.length s - 3)); None ]
      else [ Some s ])
    (String.split_on_char '.' path)

let check_of_json ~file ~key json =
  let fields = match json with Json.Obj fields -> fields | _ -> [] in
  let field k = List.assoc_opt k fields in
  let path = match field "path" with Some (Json.Str p) -> p | _ -> "" in
  let bad reason = Error { file; key; path; reason } in
  let known = [ "path"; "op"; "bound"; "tolerance" ] in
  let unknown = List.filter (fun (k, _) -> not (List.mem k known)) fields in
  match (field "op", field "bound", Option.value (field "tolerance") ~default:(Json.Num 0.0)) with
  | _ when unknown <> [] -> bad ("unknown check field " ^ fst (List.hd unknown))
  | _ when List.mem (Some "") (segments path) -> bad "path needs non-empty dotted segments"
  | Some (Json.Str ("le" | "ge" | "eq" as op)), Some (Json.Num bound), Json.Num tolerance
    when Float.is_finite bound && Float.is_finite tolerance && tolerance >= 0.0 ->
      Ok { path; op = (match op with "le" -> Le | "ge" -> Ge | _ -> Eq); bound; tolerance }
  | _ -> bad "check needs op le|ge|eq, a finite bound and a finite tolerance >= 0"

let load ~file ~key text =
  let* json = parse ~file ~key text in
  let bad reason = Error { file; key; path = ""; reason } in
  match Json.member key json with
  | None -> bad "no such key"
  | Some (Json.Arr []) -> bad "no checks"
  | Some (Json.Arr items) -> all (List.map (check_of_json ~file ~key) items)
  | Some _ -> bad "expected a list of checks"

(* Every (concrete path, value) the segments reach, or the first
   prefix that has no value. *)
let rec resolve at json = function
  | [] -> Ok [ (at, json) ]
  | Some f :: rest -> (
      let at = if at = "" then f else at ^ "." ^ f in
      match Json.member f json with Some v -> resolve at v rest | None -> Error at)
  | None :: rest -> (
      match json with
      | Json.Arr items ->
          Result.map List.concat
            (all (List.mapi (fun i v -> resolve (Printf.sprintf "%s[%d]" at i) v rest) items))
      | _ -> Error (at ^ "[*]"))

let evaluate ~file ~key json (c : check) =
  let bad reason = Error { file; key; path = c.path; reason } in
  let margin v =
    match c.op with
    | Le -> c.bound +. c.tolerance -. v
    | Ge -> v -. (c.bound -. c.tolerance)
    | Eq -> c.tolerance -. Float.abs (v -. c.bound)
  in
  let verdict = function
    | at, Json.Num value -> Ok { check = c; at; value; margin = margin value }
    | at, _ -> bad ("not a number at " ^ at)
  in
  let found = resolve "" json (segments c.path) in
  match Result.map (fun found -> all (List.map verdict found)) found with
  | Error at -> bad ("no value at " ^ at)
  | Ok (Error e) -> Error e
  | Ok (Ok []) -> bad "matched no values"
  | Ok (Ok (v :: vs)) -> Ok (List.fold_left (fun w v -> if v.margin < w.margin then v else w) v vs)

let check ~file ~key checks text =
  let* json = parse ~file ~key text in
  all (List.map (evaluate ~file ~key json) checks)

let passed v = v.margin >= 0.0

let verdict_line ~key v =
  Printf.sprintf "%s %s = %.6g %s %.6g +/- %g margin %+.6g %s" key v.at v.value
    (match v.check.op with Le -> "le" | Ge -> "ge" | Eq -> "eq")
    v.check.bound v.check.tolerance v.margin
    (if passed v then "ok" else "REGRESSION")
