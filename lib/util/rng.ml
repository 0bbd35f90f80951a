(* splitmix64: tiny, fast, and statistically solid enough for workload
   generation. State is a single 64-bit word advanced by a Weyl constant. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = bits64 t }

let int t n =
  assert (n > 0);
  (* Mask to the 62 low bits: Int64.to_int wraps at the 63-bit native-int
     boundary, which would otherwise yield negative values. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land max_int in
  r mod n

let float t x =
  (* 53 random bits mapped to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let unit = float_of_int bits /. 9007199254740992.0 in
  unit *. x

let exponential t ~mean =
  (* Inverse transform; guard against log 0. *)
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

(* Zipf via the Gray et al. quick method used by YCSB: precomputation-free
   closed form based on zeta approximations would need table state, so we
   keep a small memo keyed by (n, theta). The memo is the one piece of
   module-level mutable state in the whole library — the multicore run
   driver (Experiments.Runner.map_jobs) executes independent simulations
   on parallel domains, so it is guarded by a mutex. The computed values
   are deterministic, so racing domains would only have duplicated work,
   but unsynchronized Hashtbl mutation can corrupt the table itself. *)
let zeta_memo : (int * float, float) Hashtbl.t = Hashtbl.create 8
let zeta_lock = Mutex.create ()

let zeta n theta =
  Mutex.lock zeta_lock;
  match Hashtbl.find_opt zeta_memo (n, theta) with
  | Some z ->
    Mutex.unlock zeta_lock;
    z
  | None ->
    let z = ref 0.0 in
    for i = 1 to n do
      z := !z +. (1.0 /. Float.pow (float_of_int i) theta)
    done;
    Hashtbl.add zeta_memo (n, theta) !z;
    Mutex.unlock zeta_lock;
    !z

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    let zetan = zeta n theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta 2 theta /. zetan))
    in
    let u = float t 1.0 in
    let uz = u *. zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 theta then 1
    else
      let rank =
        int_of_float (float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha)
      in
      if rank >= n then n - 1 else rank
  end

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
