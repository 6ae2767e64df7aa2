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
// The package re-exports the user-facing API of the internal modules:
//
//   - relational engine: Schema, Table, Database, Value, predicates;
//   - lenses: Project, Select, Rename, Compose, with GetPut/PutGet law
//     checkers;
//   - network bootstrap: NewNetwork wires strict-PoA blockchain nodes,
//     the in-memory data channel, and peers in one process;
//   - sharing layer: Peer, RegisterShare/AttachShare, ProposeUpdate,
//     UpdateView, SetPermission, Resync;
//   - audit: Auditor replays the ledger into a tamper-evident history.
//
// See examples/quickstart for the smallest complete program.
package medshare

import (
	"medshare/internal/audit"
	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// Relational engine types.
type (
	// Value is a typed scalar (string, int, float, bool, time, or NULL).
	Value = reldb.Value
	// Row is an ordered tuple of values.
	Row = reldb.Row
	// Column describes one attribute of a table.
	Column = reldb.Column
	// Schema describes a table: name, ordered columns, primary key.
	Schema = reldb.Schema
	// Table is an in-memory relation with a primary-key index.
	Table = reldb.Table
	// Database is a named collection of tables; each peer owns one.
	Database = reldb.Database
	// Predicate is a serializable row condition for selection lenses.
	Predicate = reldb.Predicate
	// Changeset is the keyed difference between two table versions.
	Changeset = reldb.Changeset
	// Kind enumerates value types.
	Kind = reldb.Kind
)

// Value constructors and kinds.
var (
	// S, I, F, B, T, Null construct values.
	S    = reldb.S
	I    = reldb.I
	F    = reldb.F
	B    = reldb.B
	T    = reldb.T
	Null = reldb.Null

	// NewTable and NewDatabase construct storage.
	NewTable    = reldb.NewTable
	NewDatabase = reldb.NewDatabase

	// FormatTable renders a table as an aligned text grid.
	FormatTable = reldb.Format

	// Predicate combinators.
	PredTrue   = reldb.True
	PredCmp    = reldb.Cmp
	PredAnd    = reldb.And
	PredOr     = reldb.Or
	PredNot    = reldb.Not
	PredIsNull = reldb.IsNull
)

// Value kinds.
const (
	KindNull   = reldb.KindNull
	KindString = reldb.KindString
	KindInt    = reldb.KindInt
	KindFloat  = reldb.KindFloat
	KindBool   = reldb.KindBool
	KindTime   = reldb.KindTime
)

// Comparison operators for PredCmp.
const (
	OpEq = reldb.OpEq
	OpNe = reldb.OpNe
	OpLt = reldb.OpLt
	OpLe = reldb.OpLe
	OpGt = reldb.OpGt
	OpGe = reldb.OpGe
)

// Lens types and combinators (bidirectional transformations).
type (
	// Lens is an asymmetric lens between a source table and a view.
	Lens = bx.Lens
	// LensSpec is the serializable description registered on-chain.
	LensSpec = bx.Spec
)

var (
	// ProjectLens shares a subset of columns (vertical fine-graining).
	ProjectLens = bx.Project
	// SelectLens shares a subset of rows (horizontal fine-graining).
	SelectLens = bx.Select
	// RenameLens renames shared attributes.
	RenameLens = bx.Rename
	// JoinLens enriches the view with read-only reference data.
	JoinLens = bx.Join
	// ComposeLens chains lenses left-to-right.
	ComposeLens = bx.Compose
	// ParseLensSpec rebuilds a lens from its on-chain spec.
	ParseLensSpec = bx.ParseSpec

	// CheckGetPut, CheckPutGet, CheckWellBehaved verify the round-tripping
	// laws on concrete data.
	CheckGetPut      = bx.CheckGetPut
	CheckPutGet      = bx.CheckPutGet
	CheckWellBehaved = bx.CheckWellBehaved
	// LensOverlaps reports whether an update through one lens can affect
	// another lens's view over the same source (Fig. 5 step 6).
	LensOverlaps = bx.Overlaps
)

// Lens edit policies.
const (
	// PolicyForbid rejects structural (insert/delete) view edits.
	PolicyForbid = bx.PolicyForbid
	// PolicyApply propagates structural view edits into the source.
	PolicyApply = bx.PolicyApply
)

// Identity and sharing types.
type (
	// Identity is an ed25519 key pair naming a stakeholder.
	Identity = identity.Identity
	// Address is a stakeholder's on-chain principal.
	Address = identity.Address
	// Peer is one stakeholder: local database, shares, lenses, and the
	// blockchain connection.
	Peer = core.Peer
	// PeerConfig configures a Peer.
	PeerConfig = core.Config
	// ShareInfo is a snapshot of a peer's local share binding.
	ShareInfo = core.ShareInfo
	// RegisterShareArgs describes a new share.
	RegisterShareArgs = core.RegisterShareArgs
	// ProposalResult reports an admitted update.
	ProposalResult = core.ProposalResult
	// Directory maps addresses to data-channel endpoints.
	Directory = core.Directory
	// HistoryEntry is a locally observed share event.
	HistoryEntry = core.HistoryEntry
)

var (
	// NewIdentity generates a named key pair.
	NewIdentity = identity.New
	// NewPeer constructs a Peer from a PeerConfig.
	NewPeer = core.NewPeer
	// NewDirectory creates an endpoint directory.
	NewDirectory = core.NewDirectory
)

// Sharing-layer sentinel errors.
var (
	ErrNoChanges     = core.ErrNoChanges
	ErrTxFailed      = core.ErrTxFailed
	ErrUnknownShare  = core.ErrUnknownShare
	ErrPayloadHash   = core.ErrPayloadHash
	ErrNotAuthorized = core.ErrNotAuthorized
	ErrPutViolation  = bx.ErrPutViolation
	ErrLawViolation  = bx.ErrLawViolation
)

// Blockchain and audit types.
type (
	// Node is a blockchain node.
	Node = node.Node
	// NodeConfig configures a Node.
	NodeConfig = node.Config
	// Block is a sealed block.
	Block = chain.Block
	// Tx is a signed contract invocation.
	Tx = chain.Tx
	// ContractEvent is a committed contract event.
	ContractEvent = contract.Event
	// Auditor replays the ledger into verifiable history.
	Auditor = audit.Auditor
	// AuditRecord is one ledger-derived history entry.
	AuditRecord = audit.Record
)

// NewAuditor creates an auditor over a node's chain and contracts.
func NewAuditor(n *Node) *Auditor {
	return audit.New(n.Store(), n.Registry())
}

// Workload helpers (Fig. 1 schema and synthetic data).
var (
	// FullSchema is the seven-attribute medical record schema of Fig. 1.
	FullSchema = workload.FullSchema
	// GenerateRecords builds n deterministic synthetic records.
	GenerateRecords = workload.Generate
	// Fig1Records reproduces the exact two-row table of Fig. 1.
	Fig1Records = workload.Fig1Data
)

// Fig. 1 attribute names.
const (
	ColPatientID  = workload.ColPatientID
	ColMedication = workload.ColMedication
	ColClinical   = workload.ColClinical
	ColAddress    = workload.ColAddress
	ColDosage     = workload.ColDosage
	ColMechanism  = workload.ColMechanism
	ColMode       = workload.ColMode
)
