type mode =
  | Eager
  | Coarse
  | Fine
  | Session
  | Bounded of int

let all = [ Eager; Coarse; Fine; Session ]

let is_strong = function
  | Eager | Coarse | Fine -> true
  | Session -> false
  | Bounded k -> k = 0

let to_string = function
  | Eager -> "eager"
  | Coarse -> "coarse"
  | Fine -> "fine"
  | Session -> "session"
  | Bounded k -> Printf.sprintf "bounded:%d" k

let of_string s =
  match String.lowercase_ascii s with
  | "eager" | "esc" -> Ok Eager
  | "coarse" | "lsc" -> Ok Coarse
  | "fine" | "lfc" -> Ok Fine
  | "session" | "sc" -> Ok Session
  | other -> (
    match String.index_opt other ':' with
    | Some i when String.sub other 0 i = "bounded" -> (
      let rest = String.sub other (i + 1) (String.length other - i - 1) in
      match int_of_string_opt rest with
      | Some k when k >= 0 -> Ok (Bounded k)
      | Some _ | None -> Error (Printf.sprintf "bad staleness bound in %S" s))
    | Some _ | None -> Error (Printf.sprintf "unknown consistency mode %S" s))

type read_tier =
  | Strong
  | Bounded_staleness of {
      versions : int option;
      ms : float option;
    }
  | Causal
  | Eventual

let tier_slug = function
  | Strong -> "strong"
  | Bounded_staleness _ -> "bounded"
  | Causal -> "causal"
  | Eventual -> "eventual"

let all_tier_slugs = [ "strong"; "bounded"; "causal"; "eventual" ]

let tier_to_string = function
  | Strong -> "strong"
  | Bounded_staleness { versions; ms } -> (
    match (versions, ms) with
    | Some k, None -> Printf.sprintf "bounded:%d" k
    | None, Some m -> Printf.sprintf "bounded:%gms" m
    | Some k, Some m -> Printf.sprintf "bounded:%d,%gms" k m
    | None, None -> "bounded")
  | Causal -> "causal"
  | Eventual -> "eventual"

let tier_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let parse_bound rest =
    (* "K", "Mms", or "K,Mms" *)
    let parse_one part =
      let n = String.length part in
      if n > 2 && String.sub part (n - 2) 2 = "ms" then
        match float_of_string_opt (String.sub part 0 (n - 2)) with
        | Some m when m >= 0.0 -> Ok (`Ms m)
        | Some _ | None -> Error (Printf.sprintf "bad ms bound in %S" s)
      else
        match int_of_string_opt part with
        | Some k when k >= 0 -> Ok (`Versions k)
        | Some _ | None -> Error (Printf.sprintf "bad version bound in %S" s)
    in
    let parts = String.split_on_char ',' rest in
    let rec fold versions ms = function
      | [] -> (
        match (versions, ms) with
        | None, None -> Error (Printf.sprintf "empty staleness bound in %S" s)
        | _ -> Ok (Bounded_staleness { versions; ms }))
      | p :: tl -> (
        match parse_one p with
        | Ok (`Versions k) -> fold (Some k) ms tl
        | Ok (`Ms m) -> fold versions (Some m) tl
        | Error e -> Error e)
    in
    fold None None parts
  in
  match s with
  | "strong" -> Ok Strong
  | "causal" -> Ok Causal
  | "eventual" -> Ok Eventual
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "bounded" ->
      parse_bound (String.sub s (i + 1) (String.length s - i - 1))
    | Some _ | None -> Error (Printf.sprintf "unknown read tier %S" s))
