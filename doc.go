// Package medshare is a from-scratch Go implementation of the
// architecture in "Blockchain-based Bidirectional Updates on Fine-grained
// Medical Data" (Li, Cao, Hu, Yoshikawa; ICDE 2019 workshops): stakeholders
// keep full medical records in local relational databases, share
// fine-grained views pairwise, synchronize source and views with
// well-behaved bidirectional transformations (asymmetric lenses), and gate
// every update through a permissioned blockchain whose smart contract
// holds the share metadata — sharing peers, per-attribute write
// permissions, update sequencing, and the all-peers-acknowledged rule.
//
// The implementation lives under internal/: the relational engine
// (reldb), lenses (bx), the chain, its strict proof-of-authority
// consensus and the share-registry contract (chain, consensus, contract),
// blockchain nodes (node), the sharing layer (core), the auditor
// (audit), the durable store (store), the HTTP edge (api) and light
// clients (light). internal/daemon assembles one stakeholder from them;
// cmd/medshared runs it as a process and cmd/medsharectl drives it.
//
// This package holds only tests. Its Example functions (quickstart, the
// Fig. 5 workflow, a clinic network and an audit log) each run one daemon
// per stakeholder over loopback TCP, and `go test -v -run '^Example' .`
// prints and checks what they do.
package medshare
