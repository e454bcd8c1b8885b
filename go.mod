module prema

go 1.23
