package sharereg

import (
	"encoding/json"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
	"medshare/internal/workload"
)

// BenchmarkExecuteRequestAck times one update's contract work as every
// executing node does it: request_update and ack_update through
// contract.Execute, each write set committed, on Fig. 1's D13&D31 share
// registered with its lens spec and a 32-byte priority seed.
func BenchmarkExecuteRequestAck(b *testing.B) {
	spec, err := workload.LensD31().Spec().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	call := func(from *identity.Identity, fn string, arg any) *chain.Tx {
		raw, err := json.Marshal(arg)
		if err != nil {
			b.Fatal(err)
		}
		tx := &chain.Tx{Contract: ContractName, Fn: fn, Args: [][]byte{raw}, ShareID: workload.ShareIDD13}
		tx.Sign(from)
		return tx
	}
	reg := contract.NewRegistry(New())
	base := statedb.NewStore()
	r := contract.Execute(reg, base, call(doctor, FnRegister, RegisterArgs{
		ID:        workload.ShareIDD13,
		Peers:     []identity.Address{patient.Address(), doctor.Address()},
		Columns:   workload.ShareD13Cols,
		WritePerm: workload.PermD13(patient.Address(), doctor.Address()),
		LensSpec:  spec,
		PrioSeed:  make([]byte, 32),
	}), 1, 1000)
	if !r.OK {
		b.Fatal(r.Err)
	}
	base.Commit(r.Writes, statedb.Version{Height: 1})
	req := call(doctor, FnRequestUpdate, UpdateArgs{
		ShareID: workload.ShareIDD13, Cols: []string{workload.ColDosage, workload.ColMedication},
		PayloadHash: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08", Kind: "update",
	})
	ack := call(patient, FnAckUpdate, AckArgs{ShareID: workload.ShareIDD13, Seq: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := base.Clone()
		for h, tx := range []*chain.Tx{req, ack} {
			r := contract.Execute(reg, st, tx, uint64(h+2), int64(h+2)*1000)
			if !r.OK {
				b.Fatal(r.Err)
			}
			st.Commit(r.Writes, statedb.Version{Height: uint64(h + 2)})
		}
	}
}
