type tx = int
type item = string

type op =
  | Begin of tx
  | Read of tx * item * int
  | Write of tx * item * int
  | Commit of tx
  | Abort of tx

type t = op list

let tx_of = function
  | Begin t | Read (t, _, _) | Write (t, _, _) | Commit t | Abort t -> t

let committed h =
  List.filter_map (function Commit t -> Some t | _ -> None) h

let well_formed h =
  let started = Hashtbl.create 8 in
  let finished = Hashtbl.create 8 in
  let check op =
    let t = tx_of op in
    match op with
    | Begin _ ->
      if Hashtbl.mem started t then Error (Printf.sprintf "T%d begins twice" t)
      else begin
        Hashtbl.add started t ();
        Ok ()
      end
    | Commit _ | Abort _ ->
      if not (Hashtbl.mem started t) then
        Error (Printf.sprintf "T%d terminates before beginning" t)
      else if Hashtbl.mem finished t then
        Error (Printf.sprintf "T%d terminates twice" t)
      else begin
        Hashtbl.add finished t ();
        Ok ()
      end
    | Read _ | Write _ ->
      if not (Hashtbl.mem started t) then
        Error (Printf.sprintf "T%d operates before beginning" t)
      else if Hashtbl.mem finished t then
        Error (Printf.sprintf "T%d operates after terminating" t)
      else Ok ()
  in
  List.fold_left
    (fun acc op -> match acc with Error _ -> acc | Ok () -> check op)
    (Ok ()) h

let writes_of h t =
  List.filter_map (function Write (t', i, v) when t' = t -> Some (i, v) | _ -> None) h

let commits_before_begin h =
  (* Walk the history; when T begins, every already-committed transaction
     precedes it in real time. *)
  let committed_so_far = ref [] in
  let pairs = ref [] in
  let all_committed = committed h in
  List.iter
    (fun op ->
      match op with
      | Commit t -> committed_so_far := t :: !committed_so_far
      | Begin t when List.mem t all_committed ->
        List.iter (fun ti -> pairs := (ti, t) :: !pairs) !committed_so_far
      | Begin _ | Read _ | Write _ | Abort _ -> ())
    h;
  List.rev !pairs
