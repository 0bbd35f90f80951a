module Log = struct
  type t = {
    mutable entries : Storage.Writeset.t Util.Vec.t;  (* index i = version base+i+1 *)
    mutable base : int;
    mutable head : int;
  }

  let create () = { entries = Util.Vec.create (); base = 0; head = 0 }

  let base log = log.base

  let head log = log.head

  let get log v = Util.Vec.get log.entries (v - log.base - 1)

  let append log ws =
    Util.Vec.push log.entries ws;
    log.head <- log.head + 1;
    log.head

  let append_at log v ws = if v = log.head + 1 then ignore (append log ws)

  let entries log ~after ~upto =
    let rec build v acc =
      if v <= after then acc else build (v - 1) ((v, get log v) :: acc)
    in
    build upto []

  (* A fresh entry vector holding the versions over (after, upto]. *)
  let copy log ~after ~upto =
    let fresh = Util.Vec.create () in
    for v = after + 1 to upto do
      Util.Vec.push fresh (get log v)
    done;
    fresh

  let truncate log ~upto =
    if log.head > upto then begin
      let keep = max upto log.base in
      log.entries <- copy log ~after:log.base ~upto:keep;
      log.head <- keep
    end

  let prune log ~keep_after =
    if keep_after > log.base && log.head >= keep_after then begin
      log.entries <- copy log ~after:keep_after ~upto:log.head;
      log.base <- keep_after
    end

  let install_snapshot log ~base =
    log.entries <- Util.Vec.create ();
    log.base <- base;
    log.head <- base
end

(* Invariant: for every conflict key written by a retained log entry,
   the index holds the *highest* committing version. Commits update log
   and index together, so the check also catches intra-batch conflicts:
   the later arrival sees the earlier member's writeset and aborts, as
   if the two had certified back to back. Every writeset carries its
   ids, built against the group's intern table ([cids] returns the
   cached array). *)
module Index = struct
  type t = { tbl : int Util.Tables.Itbl.t; intern : Storage.Intern.t }

  let create ~intern () = { tbl = Util.Tables.Itbl.create 4096; intern }

  let intern index = index.intern

  let conflicts index ~snapshot ws =
    let kids = Storage.Writeset.cids ws ~intern:index.intern in
    let n = Array.length kids in
    let rec probe i =
      if i >= n then false
      else
        match Util.Tables.Itbl.find_opt index.tbl kids.(i) with
        | Some v when v > snapshot -> true
        | _ -> probe (i + 1)
    in
    probe 0

  let record index ws version =
    Array.iter
      (fun kid -> Util.Tables.Itbl.replace index.tbl kid version)
      (Storage.Writeset.cids ws ~intern:index.intern)

  (* Ascending replay leaves the highest writer per key. *)
  let rebuild index log =
    Util.Tables.Itbl.reset index.tbl;
    for v = Log.base log + 1 to Log.head log do
      record index (Log.get log v) v
    done

  (* Entries at or below the horizon never certify a conflict again: a
     snapshot < base aborts before the probe, and for snapshot >= base
     >= v the comparison v > snapshot is false. *)
  let prune index ~keep_after =
    Util.Tables.Itbl.filter_map_inplace
      (fun _ v -> if v <= keep_after then None else Some v)
      index.tbl

  let size index = Util.Tables.Itbl.length index.tbl
end

(* A snapshot older than the pruned horizon cannot be checked and is
   conservatively aborted; the horizon trails the slowest replica by
   [Certifier.watermark_slack] versions, so this only hits pathologically
   old ones. *)
let decide ~record log index ~snapshot ws =
  if snapshot < Log.base log || Index.conflicts index ~snapshot ws then None
  else begin
    let v = Log.append log ws in
    if record then Index.record index ws v;
    Some v
  end
