(* CRC-32 (ISO 3309 / zlib polynomial, reflected 0xEDB88320), table-driven.
   Pure OCaml so the simulator stays dependency-free; ints are 63-bit on
   every platform we build for, so the 32-bit value fits in a plain [int]. *)

let poly = 0xEDB88320

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then (!c lsr 1) lxor poly else !c lsr 1
      done;
      !c)

(* A plain loop over a local accumulator: no closure, no boxed ref, so
   checksumming a frame allocates nothing. *)
let string s =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
