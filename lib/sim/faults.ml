type spec = { drop : float; duplicate : float; delay : float; delay_ms : float }

let clean = { drop = 0.0; duplicate = 0.0; delay = 0.0; delay_ms = 0.0 }

let spec ?(drop = 0.0) ?(duplicate = 0.0) ?(delay = 0.0) ?(delay_ms = 0.0) () =
  { drop; duplicate; delay; delay_ms }

type drop_reason = [ `Random | `Partition | `Script ]

let any = min_int + 1

(* [b = []] means "everyone not in [a]". *)
type cut = {
  a : int list;
  b : int list;
  symmetric : bool;
  from_ms : float;
  until_ms : float;
}

type window = { node : int; factor : float; w_from : float; w_until : float }

type t = {
  engine : Engine.t;
  rng : Util.Rng.t;
  mutable default : spec;
  links : (int * int, spec) Hashtbl.t;
  scripted : (int * int, int ref) Hashtbl.t;
  mutable cuts : cut list;
  mutable windows : window list;
  mutable drops : int;
  mutable duplicates : int;
  mutable delays : int;
}

let create ?(seed = 0) engine =
  {
    engine;
    rng = Util.Rng.create seed;
    default = clean;
    links = Hashtbl.create 16;
    scripted = Hashtbl.create 4;
    cuts = [];
    windows = [];
    drops = 0;
    duplicates = 0;
    delays = 0;
  }

let set_default t spec = t.default <- spec
let set_link t ~src ~dst spec = Hashtbl.replace t.links (src, dst) spec

let script_drop t ~src ~dst ~count =
  match Hashtbl.find_opt t.scripted (src, dst) with
  | Some r -> r := !r + count
  | None -> Hashtbl.replace t.scripted (src, dst) (ref count)

let partition t ?(symmetric = true) ~a ~b ~from_ms ~until_ms () =
  t.cuts <- { a; b; symmetric; from_ms; until_ms } :: t.cuts

let slow t ~node ~factor ~from_ms ~until_ms =
  t.windows <- { node; factor; w_from = from_ms; w_until = until_ms } :: t.windows

let slowdown t ~node =
  let now = Engine.now t.engine in
  List.fold_left
    (fun acc w ->
      if w.node = node && now >= w.w_from && now < w.w_until then acc *. w.factor
      else acc)
    1.0 t.windows

(* [Network.unspecified] (min_int) and the [any] wildcard are sentinels,
   not nodes: they belong to no group, so a message with an untagged
   endpoint is never cut by a partition — even by a [b = []] ("everyone
   else") group. *)
let in_group node group ~others =
  node > any
  && (match group with [] -> not (List.mem node others) | g -> List.mem node g)

let cut_active c now ~src ~dst =
  now >= c.from_ms && now < c.until_ms
  && ((in_group src c.a ~others:c.a && in_group dst c.b ~others:c.a)
     || (c.symmetric && in_group dst c.a ~others:c.a && in_group src c.b ~others:c.a))

let partitioned t ~src ~dst =
  let now = Engine.now t.engine in
  List.exists (fun c -> cut_active c now ~src ~dst) t.cuts

let find_spec t ~src ~dst =
  let lookup key = Hashtbl.find_opt t.links key in
  match lookup (src, dst) with
  | Some s -> s
  | None -> (
      match lookup (src, any) with
      | Some s -> s
      | None -> ( match lookup (any, dst) with Some s -> s | None -> t.default))

type verdict = Deliver | Drop of drop_reason | Duplicate | Delay of float

let note_drop t reason =
  t.drops <- t.drops + 1;
  Drop reason

let judge t ~src ~dst =
  match Hashtbl.find_opt t.scripted (src, dst) with
  | Some r when !r > 0 ->
      decr r;
      note_drop t `Script
  | _ ->
      if partitioned t ~src ~dst then note_drop t `Partition
      else
        let s = find_spec t ~src ~dst in
        if s.drop > 0.0 && Util.Rng.float t.rng 1.0 < s.drop then
          note_drop t `Random
        else if s.duplicate > 0.0 && Util.Rng.float t.rng 1.0 < s.duplicate then (
          t.duplicates <- t.duplicates + 1;
          Duplicate)
        else if s.delay > 0.0 && Util.Rng.float t.rng 1.0 < s.delay then (
          t.delays <- t.delays + 1;
          Delay s.delay_ms)
        else Deliver

let drops t = t.drops
let duplicates t = t.duplicates
let delays t = t.delays
