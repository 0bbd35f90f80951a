(* Binary min-heap over (priority, sequence, payload). The sequence number
   makes the ordering total and FIFO among equal priorities, so simulation
   runs are deterministic.

   Stored as three parallel arrays rather than an array of entry records:
   the priority array is an unboxed float array, so push/pop allocate
   nothing (the simulator pushes and pops one event per step — an entry
   record per event was the engine loop's dominant allocation), and the
   sift comparisons read adjacent flat memory.

   Both sifts move a hole rather than swapping: the moving entry stays in
   locals, each level copies one parent or child entry into the hole, and
   the moving entry is written once where the hole stops. *)

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
  pi < pj || (pi = pj && Array.unsafe_get q.seqs i < Array.unsafe_get q.seqs j)

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

let push_after q base delay payload =
  let prio = base +. delay in
  if Array.length q.payloads = 0 then begin
    q.prios <- Array.make 16 0.0;
    q.seqs <- Array.make 16 0;
    q.payloads <- Array.make 16 payload
  end
  else if q.size = Array.length q.payloads then grow q;
  let prios = q.prios and seqs = q.seqs and payloads = q.payloads in
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* Sift up. The new entry's sequence number is the largest in the heap,
     so it passes only parents of strictly greater priority. *)
  let hole = ref q.size in
  q.size <- q.size + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) lsr 1 in
    let parent_prio = Array.unsafe_get prios parent in
    if prio < parent_prio then begin
      Array.unsafe_set prios !hole parent_prio;
      Array.unsafe_set seqs !hole (Array.unsafe_get seqs parent);
      Array.unsafe_set payloads !hole (Array.unsafe_get payloads parent);
      hole := parent
    end
    else rising := false
  done;
  Array.unsafe_set prios !hole prio;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set payloads !hole payload

(* Sift the entry at slot [from] (at or past [q.size], so no child index
   reaches it) down from the hole at the root. It takes the index, not the
   priority: a float argument would be boxed on every call. *)
let sift_down q from =
  let prios = q.prios and seqs = q.seqs and payloads = q.payloads in
  let size = q.size in
  let prio = Array.unsafe_get prios from and seq = Array.unsafe_get seqs from in
  let hole = ref 0 in
  let sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= size then sinking := false
    else begin
      let right = left + 1 in
      let child = if right < size && lt q right left then right else left in
      let child_prio = Array.unsafe_get prios child in
      if child_prio < prio || (child_prio = prio && Array.unsafe_get seqs child < seq) then begin
        Array.unsafe_set prios !hole child_prio;
        Array.unsafe_set seqs !hole (Array.unsafe_get seqs child);
        Array.unsafe_set payloads !hole (Array.unsafe_get payloads child);
        hole := child
      end
      else sinking := false
    end
  done;
  Array.unsafe_set prios !hole prio;
  Array.unsafe_set seqs !hole seq;
  Array.unsafe_set payloads !hole (Array.unsafe_get payloads from)

(* Adding -0.0 is the identity on every float, -0.0 included. *)
let push q prio payload = push_after q prio (-0.0) payload

let[@inline] min_prio q = q.prios.(0)

let min_le q bound = q.size > 0 && Array.unsafe_get q.prios 0 <= bound

let pop_exn q =
  if q.size = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let top = q.payloads.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q last;
  (* The vacated slot keeps a stale payload reference until the next
     push overwrites it — same retention as the caller, who is about to
     run the popped event anyway. *)
  top
