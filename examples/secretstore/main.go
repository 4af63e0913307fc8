// Secretstore: the value-carrying datapath end to end. A small key-value
// store keeps its records in ObfusMem-protected memory; we show that (1)
// data round-trips correctly through at-rest + transit encryption, (2) the
// memory module holds only ciphertext, (3) a bus observer learns nothing
// about which record is hot, and (4) Observation 4 plays out exactly as
// the paper describes: in-flight data corruption passes the bus MAC but is
// caught by the Merkle integrity tree on the next read.
package main

import (
	"fmt"
	"io"
	"os"

	"obfusmem"
)

func mkBlock(s string) obfusmem.Block {
	var b obfusmem.Block
	copy(b[:], s)
	return b
}

func main() { os.Exit(run(os.Stdout)) }

// run writes the report to stdout and returns the exit code.
func run(stdout io.Writer) int {
	m, err := obfusmem.NewMachine(obfusmem.MachineConfig{
		Protection: obfusmem.ProtectionObfusMemAuth, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	obs := m.AttachObserver(1 << 20)

	// A tiny record store: key i lives at block i.
	records := []string{
		"alice: salary=120000",
		"bob: salary=95000",
		"carol: diagnosis=confidential",
		"dave: pin=4242",
	}
	var at obfusmem.Time
	for i, r := range records {
		at = m.WriteBlock(at, uint64(i)*64, mkBlock(r))
	}

	// Hammer one hot record (the access pattern a real attacker wants).
	for i := 0; i < 200; i++ {
		_, done, _ := m.ReadBlock(at, 2*64) // carol, 200 times
		at = done
	}

	// 1. Round trip.
	got, done, verified := m.ReadBlock(at, 2*64)
	at = done
	fmt.Fprintf(stdout, "read back: %q (verified=%v)\n", string(got[:30]), verified)

	// 2. What sits in the memory chips.
	fmt.Fprintf(stdout, "\nwhat a memory readout attack sees (block 2): not %q\n", records[2][:20])
	fmt.Fprintln(stdout, "   (ciphertext at rest; see TestValueDataInMemoryIsCiphertext)")

	// 3. What the bus observer learned.
	fmt.Fprintf(stdout, "\nbus observer after %d packets:\n", obs.Packets())
	fmt.Fprintf(stdout, "  ciphertext repeats:  %.4f  (cannot see that one record is hot)\n", obs.TemporalLeakage())
	fmt.Fprintf(stdout, "  footprint estimate:  %d vs true 4 records\n", obs.FootprintEstimate())
	fmt.Fprintf(stdout, "  dictionary attack:   %.4f recovery\n", obs.DictionaryAttack())

	// 4. Observation 4: corrupt data in flight during a write.
	fmt.Fprintln(stdout, "\nactive attacker corrupts the data payload of the next write...")
	tmp := m.AttachTamperer(obfusmem.TamperData, 1)
	at = m.WriteBlock(at, 3*64, mkBlock("dave: pin=9999 (update)"))
	ev := m.SecurityEvents()
	fmt.Fprintf(stdout, "  bus MAC alarms: %d (encrypt-and-MAC does not cover data — by design)\n", ev.TamperDetected)
	_ = tmp

	m2, _, ok := m.ReadBlock(at, 3*64)
	fmt.Fprintf(stdout, "  next read of dave's record: verified=%v (Merkle tree caught it)\n", ok)
	if ok {
		fmt.Fprintln(os.Stderr, "corruption went undetected!")
		return 1
	}
	_ = m2
	fmt.Fprintln(stdout, "\nObservation 4: \"tampering of data that is written to memory will not be")
	fmt.Fprintln(stdout, "detected until the data is eventually read into the processor chip.\"")
	return 0
}
