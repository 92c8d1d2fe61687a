package wscript

// Node is any AST node; Line anchors error messages.
type Node interface{ nodeLine() int }

type base struct{ Line int }

func (b base) nodeLine() int { return b.Line }

// Program is a parsed source file: an ordered list of top-level items.
type Program struct {
	Items []Item
}

// Item is a top-level declaration.
type Item interface{ Node }

// FunDecl is `fun name(params) { body }`.
type FunDecl struct {
	base
	Name   string
	Params []string
	Body   *Block
}

// Binding is `name = expr;` at top level or inside a namespace.
type Binding struct {
	base
	Name string
	Expr Expr
}

// NamespaceDecl is `namespace Node { bindings }`.
type NamespaceDecl struct {
	base
	Bindings []*Binding
}

// Block is `{ stmt* }`; its value is the last expression statement's value.
type Block struct {
	base
	Stmts []Stmt
}

// Stmt is a statement.
type Stmt interface{ Node }

// LetStmt is `name = expr;` (declaration or reassignment) inside a block.
type LetStmt struct {
	base
	Name string
	Expr Expr
}

// AssignOpStmt is `name += expr;` and friends.
type AssignOpStmt struct {
	base
	Name string
	Op   string // "+", "-", "*", "/"
	Expr Expr
}

// IndexAssignStmt is `name[idx] = expr;`.
type IndexAssignStmt struct {
	base
	Name  string
	Index Expr
	Expr  Expr
}

// ExprStmt is an expression evaluated for effect (or as a block's value).
type ExprStmt struct {
	base
	Expr Expr
}

// IfStmt is `if cond { } else { }`; Else may be nil.
type IfStmt struct {
	base
	Cond Expr
	Then *Block
	Else *Block
}

// ForStmt is `for i = lo to hi { }` (inclusive bounds, as in Figure 1).
type ForStmt struct {
	base
	Var    string
	Lo, Hi Expr
	Body   *Block
}

// WhileStmt is `while cond { }`.
type WhileStmt struct {
	base
	Cond Expr
	Body *Block
}

// EmitStmt is `emit expr;` inside an iterate body.
type EmitStmt struct {
	base
	Expr Expr
}

// ReturnStmt is `return expr;` inside a function body.
type ReturnStmt struct {
	base
	Expr Expr
}

// Expr is an expression.
type Expr interface{ Node }

// IntLit, FloatLit, StringLit, BoolLit are literals.
type IntLit struct {
	base
	Value int64
}

// FloatLit is a floating literal.
type FloatLit struct {
	base
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	base
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	base
	Value bool
}

// Ident references a variable.
type Ident struct {
	base
	Name string
}

// ArrayLit is `[e1, e2, ...]`.
type ArrayLit struct {
	base
	Elems []Expr
}

// IndexExpr is `arr[idx]`.
type IndexExpr struct {
	base
	Arr   Expr
	Index Expr
}

// CallExpr is `fn(args)`; Fn is an identifier (first-class functions are
// referenced by name, possibly dotted builtins like Array.make).
type CallExpr struct {
	base
	Fn   string
	Args []Expr
}

// BinExpr is a binary operation.
type BinExpr struct {
	base
	Op   string
	L, R Expr
}

// UnExpr is unary `-` or `!`.
type UnExpr struct {
	base
	Op string
	X  Expr
}

// IterateExpr is
//
//	iterate x in stream [state { bindings }] { body }
//
// It evaluates to a new stream whose operator runs body for each input
// element, with the state bindings as private per-instance state.
type IterateExpr struct {
	base
	Var    string
	Stream Expr
	State  []*LetStmt
	Body   *Block
}

// ZipExpr is `zip(s1, s2, ...)`: a synchronizing merge that emits an array
// of one element per input once all inputs have one pending.
type ZipExpr struct {
	base
	Streams []Expr
}
