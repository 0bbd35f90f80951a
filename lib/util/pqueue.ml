(* Binary min-heap over (priority, sequence, payload). The sequence number
   makes the ordering total and FIFO among equal priorities, so simulation
   runs are deterministic.

   Stored as three parallel arrays rather than an array of entry records:
   the priority array is an unboxed float array, so push/pop allocate
   nothing (the simulator pushes and pops one event per step — an entry
   record per event was the engine loop's dominant allocation), and the
   sift comparisons read adjacent flat memory. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { prios = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length q = q.size

let[@inline] is_empty q = q.size = 0

(* [lt q i j]: does slot [i] order strictly before slot [j]? *)
let[@inline] lt q i j =
  let pi = Array.unsafe_get q.prios i and pj = Array.unsafe_get q.prios j in
  pi < pj
  || (pi = pj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

let[@inline] swap q i j =
  let p = q.prios.(i) in
  q.prios.(i) <- q.prios.(j);
  q.prios.(j) <- p;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let x = q.payloads.(i) in
  q.payloads.(i) <- q.payloads.(j);
  q.payloads.(j) <- x

let grow q =
  let capacity = Array.length q.payloads in
  let new_capacity = if capacity = 0 then 16 else capacity * 2 in
  let prios = Array.make new_capacity 0.0 in
  Array.blit q.prios 0 prios 0 q.size;
  q.prios <- prios;
  let seqs = Array.make new_capacity 0 in
  Array.blit q.seqs 0 seqs 0 q.size;
  q.seqs <- seqs;
  (* Dummy slot reused to fill the fresh tail of the array. *)
  let payloads = Array.make new_capacity q.payloads.(0) in
  Array.blit q.payloads 0 payloads 0 q.size;
  q.payloads <- payloads

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q i parent then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 in
  if left < q.size then begin
    let right = left + 1 in
    let smallest = if right < q.size && lt q right left then right else left in
    if lt q smallest i then begin
      swap q i smallest;
      sift_down q smallest
    end
  end

let push q prio payload =
  if Array.length q.payloads = 0 then begin
    q.prios <- Array.make 16 0.0;
    q.seqs <- Array.make 16 0;
    q.payloads <- Array.make 16 payload
  end
  else if q.size = Array.length q.payloads then grow q;
  let i = q.size in
  q.prios.(i) <- prio;
  q.seqs.(i) <- q.next_seq;
  q.payloads.(i) <- payload;
  q.next_seq <- q.next_seq + 1;
  q.size <- q.size + 1;
  sift_up q i

let[@inline] min_prio q = q.prios.(0)

let pop_exn q =
  if q.size = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let top = q.payloads.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    q.prios.(0) <- q.prios.(last);
    q.seqs.(0) <- q.seqs.(last);
    q.payloads.(0) <- q.payloads.(last);
    sift_down q 0
  end;
  (* The vacated slot keeps a stale payload reference until the next
     push overwrites it — same retention as the caller, who is about to
     run the popped event anyway. *)
  top

let pop q =
  if q.size = 0 then None
  else begin
    let prio = min_prio q in
    Some (prio, pop_exn q)
  end

let peek q = if q.size = 0 then None else Some (q.prios.(0), q.payloads.(0))
